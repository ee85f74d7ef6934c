"""Dirichlet minimization of the intrinsic graph area functional.

The energy is the midpoint-rule H-perimeter of a graph over W.  Its
discrete gradient is exact for the discretization, including the
chain-rule term from the Burgers component where phi multiplies its own
t-derivative.  That coupling makes the energy non-convex, so descent
certifies quality through the calibration gap energy - L^{2n}(grid),
which vanishes only on graphs with zero intrinsic gradient.  Every
function here works over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    GridFunction,
    GridSpec,
    _area,
    _cuts_tail,
    _map_slabs,
    _relative,
    _sl,
    _slab,
    _tail_rows,
    _twice_coordinates,
    intrinsic_gradient,
)

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


def _adjoint_axis(
    u: np.ndarray, axis: int, h: float, out: np.ndarray, box: tuple,
    offset: int = 0, size: int | None = None,
) -> np.ndarray:
    """The adjoint of the second-order np.gradient stencil along one axis, over `box`.

    Written into out, shaped like the box as graph._partial's output is,
    so a caller can reuse one scratch array, with the same operations in
    the same order on every element as on the whole array.  `box` holds
    one slice with explicit bounds per axis and indexes u; the adjoint
    reads u's neighbours along `axis` outside it.  u's index i along
    `axis` is grid index i + offset of a grid `size` nodes long (u's own
    length by default): the one-sided end terms belong to the grid's end
    layers, so u must hold those wherever the box reaches within three
    nodes of them.  Returns out.

    Along y_n and t (the last two axes) the box keeps both whole and u
    holds the whole axis (offset 0), or ValueError is raised.  The
    centered terms there run over each contiguous run of
    graph._tail_rows at once, shifted by one layer, as graph._partial's
    do.  That wraps across the axis' ends, and layers 0, 1, m - 2 and
    m - 1 then get their centered terms alone before the end terms.
    """
    nd = u.ndim
    if axis >= nd - 2:
        if offset or size not in (None, u.shape[axis]) or _cuts_tail(box, u.shape):
            raise ValueError("a y_n or t adjoint needs the whole axis: offset 0, box uncut")
        m, s = u.shape[axis], math.prod(u.shape[axis + 1:])
        (rows, u), (res_rows, res) = _tail_rows(u[box], m, s), _tail_rows(out, m, s)
        # + u[j - 1] for grid index j >= 2, - u[j + 1] for 2 <= j <= m - 3
        np.add(0.0, rows[..., s:-s], out=res_rows[..., 2 * s:])
        res_rows[..., 2 * s:-2 * s] -= rows[..., 3 * s:-s]
        nd, axis, size, a, b = u.ndim, u.ndim - 2, m, 0, m
        for j in sorted({0, 1, m - 2, m - 1}):  # at most one centered term each
            o = res[_sl(nd, axis, j)]
            if j >= 2:
                np.add(0.0, u[_sl(nd, axis, j - 1)], out=o)
            elif j <= m - 3:
                np.subtract(0.0, u[_sl(nd, axis, j + 1)], out=o)
            else:
                o.fill(0.0)
    else:
        u, a, b = _slab(u, axis, box)
        size, res = u.shape[axis] if size is None else size, out
        # the bounds lo, hi and the end layers j are grid indices shifted to u's
        lo, hi = max(a + offset, 2) - offset, max(min(b + offset, size - 2) - offset, a)
        inner = out[_sl(nd, axis, slice(lo - a, b - a))]
        np.add(0.0, u[_sl(nd, axis, slice(lo - 1, b - 1))], out=inner)
        out[_sl(nd, axis, slice(0, lo - a))] = 0.0
        out[_sl(nd, axis, slice(0, hi - a))] -= u[_sl(nd, axis, slice(a + 1, hi + 1))]
    for j, i, c in ((0, 0, -3.0), (1, 0, 4.0), (2, 0, -1.0),
                    (-1, -1, 3.0), (-2, -1, -4.0), (-3, -1, 1.0)):
        j, i = j % size - offset, i % size - offset
        if a <= j < b:
            res[_sl(nd, axis, j - a)] += c * u[_sl(nd, axis, i)]
    out /= 2.0 * h
    return out


@dataclass(kw_only=True)
class _Iterate(GridFunction):
    """Descent point whose stencil passes run only where values can change.

    `boxes` = (energy box, gradient box) of _free_boxes.  The `planes`
    (components, dt, tmp, area) of _descent_planes pass from each point to
    the next, all shaped like the energy box; the area is the energy box's
    view of a grid-shaped area plane, filled over the whole grid before
    the descent's first energy.  Every energy runs one pass over the
    energy box, outside which no value, so no area element, changes.
    energy_gradient reads the pass of the energy just before it and writes
    W and V / area over it, then adjoints into the area plane inside the
    gradient box; the next energy recomputes all of it.
    """

    boxes: tuple
    planes: tuple = field(repr=False)


def _free_boxes(mask: np.ndarray, n: int) -> tuple[tuple, tuple]:
    """(energy box, gradient box) of a descent whose free nodes are ~mask.

    The gradient box bounds the free nodes; the energy box grows it by the
    one node a centered stencil reaches, and stays in the grid because
    free nodes keep STENCIL_REACH layers from its edge.  Both cut only the
    leading 2n - 2 axes and keep (y_n, t) whole, as every stencil pass
    requires: a slab of a pass is then one contiguous run of rows per
    leading index (graph._tail_rows), and the y_n and t stencils run over
    each run at once.  Without free nodes both are empty.
    """
    free = ~mask
    whole = tuple(slice(0, c) for c in mask.shape)
    if not free.any():
        return ((slice(0, 0),) + whole[1:],) * 2
    grad_box = list(whole)
    for ax in range(2 * n - 2):
        hit = np.flatnonzero(free.any(axis=tuple(k for k in range(mask.ndim) if k != ax)))
        grad_box[ax] = slice(int(hit[0]), int(hit[-1]) + 1)
    energy_box = [slice(s.start - 1, s.stop + 1) for s in grad_box[: 2 * n - 2]]
    return tuple(energy_box) + whole[2 * n - 2:], tuple(grad_box)


def _box_planes(spec: GridSpec, box: tuple | None = None) -> tuple:
    """(components, dt, tmp): the planes of a stencil pass over `box` (the
    whole grid by default) but the area, shaped like it."""
    shape = spec.counts if box is None else tuple(s.stop - s.start for s in box)
    return np.empty((2 * spec.n - 1,) + shape), np.empty(shape), np.empty(shape)


def _descent_planes(f: GridFunction, box: tuple) -> tuple:
    """The (components, dt, tmp, area) planes of a descent from f whose
    energy box is `box`: the area is the box's view of f's area element,
    streamed over the whole grid in slabs (graph._area), which no energy
    of the descent rewrites outside the box."""
    area = _area(f)
    return _box_planes(f.spec, box) + (area[box],)


def energy(f: GridFunction) -> float:
    """Area of the graph over the grid; always >= L^{2n}(grid).

    Equal to surface.hperimeter(f) bit for bit.  A descent point's energy
    runs one pass over its energy box into its planes, for the gradient.
    """
    if isinstance(f, _Iterate):
        intrinsic_gradient(f, f.boxes[0], f.planes)
        area = f.planes[3].base
    else:
        area = _area(f)
    return float(np.sum(area.ravel()) * f.spec.cell_volume)


def energy_gradient(f: GridFunction, out=None) -> np.ndarray:
    """Exact nodal derivative of the discretized energy, flat layout.

    On a descent point it is exact over the gradient box and zero outside.
    A flat `out` of the grid's size receives it instead of a new array.
    """
    spec = f.spec
    n, h, V = spec.n, spec.h, spec.cell_volume
    t_ax = 2 * n - 1
    if isinstance(f, _Iterate):
        planes, (scaled, box) = f.planes, f.boxes
    else:
        planes = _box_planes(spec) + (np.empty(spec.counts),)
        scaled = box = None
        intrinsic_gradient(f, None, planes)
    # W, dt, tmp and the area are shaped like the energy box `scaled`
    W, dt, tmp, area = planes
    offsets = (0,) * (2 * n) if scaled is None else tuple(s.start for s in scaled)

    def scale(slab: tuple) -> None:
        r = _relative(slab, scaled)
        W[(slice(None),) + r] *= np.divide(V, area[r], out=area[r])

    # W = G * (V / area), written over G and the area, over the whole
    # energy box before any adjoint: an axis-0 adjoint reads the
    # neighbour rows of its slab
    _map_slabs(scale, spec, scaled)
    out = np.empty(spec.size) if out is None else out
    grad = out.reshape(spec.counts)
    grad.fill(0.0)
    # the area plane is spent over the energy box once scaled, and the
    # adjoints write only inside the gradient box, so it is their scratch;
    # the area outside the energy box stays the one _descent_planes streamed
    ys, xs = _twice_coordinates(spec, n), _twice_coordinates(spec, 0)

    def adjoints(slab: tuple) -> None:
        r = _relative(slab, scaled)
        g, t, a = grad[slab], tmp[r], area[r]

        def adjoint(u: np.ndarray, axis: int) -> np.ndarray:
            return _adjoint_axis(u, axis, h, a, r, offsets[axis], spec.counts[axis])

        for i in range(2, n + 1):
            wx = W[i - 2]
            g += adjoint(wx, i - 2)
            np.multiply(ys[i - 2][slab], wx[r], out=t)
            g += adjoint(tmp, t_ax)
        wb = W[n - 1]
        g += adjoint(wb, n - 1)
        np.multiply(4.0, dt[r], out=t)
        g -= np.multiply(t, wb[r], out=t)
        np.multiply(f.values[slab], wb[r], out=t)
        g -= np.multiply(4.0, adjoint(tmp, t_ax), out=a)
        for i in range(2, n + 1):
            wy = W[n + i - 2]
            g += adjoint(wy, n + i - 2)
            np.multiply(xs[i - 2][slab], wy[r], out=t)
            g -= adjoint(tmp, t_ax)

    _map_slabs(adjoints, spec, box)
    return out


@dataclass
class DirichletProblem:
    """Fixed boundary values on the mask, free nodes elsewhere."""

    initial: GridFunction
    mask: np.ndarray

    def __post_init__(self) -> None:
        spec, mask = self.initial.spec, self.mask
        if mask.shape != spec.counts:
            raise ValueError("dirichlet mask shape does not match grid")
        if np.any(spec.boundary_mask(STENCIL_REACH) & ~mask):
            raise ValueError(
                f"dirichlet mask must cover {STENCIL_REACH} layers at the grid edge"
            )

    @property
    def spec(self) -> GridSpec:
        return self.initial.spec


def dirichlet_problem(spec: GridSpec, data, init=None) -> DirichletProblem:
    """Assemble a problem: `data` fixes the mask, `init` seeds free nodes.

    The mask is the STENCIL_REACH layers at the grid edge.  `data` is a
    number or, like `init`, a row-wise function of nodes as
    GridFunction.from_callable takes.  Both run through one from_callable
    pass, so no node array of the whole grid is built: each is called once
    per block of nodes, in node order, on every node of the block.  So an
    `init` that draws len(nodes) values from one random stream per call
    gives the values of one draw over the whole grid.
    """
    mask = spec.boundary_mask(STENCIL_REACH)
    fixed = data if callable(data) else (lambda nodes, c=float(data): np.full(len(nodes), c))
    on_mask, done = mask.ravel(), 0

    def values(nodes: np.ndarray) -> np.ndarray:
        nonlocal done
        rows = slice(done, done + len(nodes))
        done = rows.stop
        return np.where(on_mask[rows], fixed(nodes), init(nodes))

    f = GridFunction.from_callable(spec, fixed if init is None else values)
    return DirichletProblem(f, mask)


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
    the last iterate with converged=False.  A start whose energy is not
    finite raises FloatingPointError before any step; a NaN tol or a
    negative max_iter raises ValueError (a negative tol is legal: it never
    stops on the gradient).
    """
    if math.isnan(tol) or max_iter < 0:
        raise ValueError(f"need a tol that is not NaN and max_iter >= 0, got {tol}, {max_iter}")
    spec = problem.spec
    fixed = problem.mask.ravel()
    boxes = _free_boxes(problem.mask, spec.n)

    def masked_grad(point: _Iterate, out: np.ndarray) -> np.ndarray:
        g = energy_gradient(point, out)
        g[fixed] = 0.0
        return g

    # four vectors: x, g and two spares; spare_x holds prev_x, then s, then
    # the line search's candidates, spare_g holds prev_g, then y, then the
    # next gradient, and each swaps with x or g on acceptance
    x = problem.initial.values.ravel().copy()
    g, spare_x, spare_g = (np.empty_like(x) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        planes = _descent_planes(problem.initial, boxes[0])
        point = _Iterate(spec, x.reshape(spec.counts), boxes=boxes, planes=planes)
        e = energy(point)
    if not math.isfinite(e):
        raise FloatingPointError(f"start energy is {e}: the initial values overflow the area")
    masked_grad(point, g)
    e_trace = [e]
    # |g|_inf without an np.abs temporary
    g_trace = [float(max(g.max(), -g.min()))]
    last_alpha = None
    iterations = 0
    ls_failed = False

    while iterations < max_iter and g_trace[-1] > tol:
        alpha = None
        if iterations:  # the spares hold prev_x and prev_g
            s = np.subtract(x, spare_x, out=spare_x)
            y = np.subtract(g, spare_g, out=spare_g)
            sy = float(s @ y)
            if sy > 1e-300:
                alpha = float(s @ s) / sy
        if alpha is None or not np.isfinite(alpha) or alpha <= 0:
            alpha = 2.0 * last_alpha if last_alpha else 1.0 / max(g_trace[-1], 1.0)
        gg = float(g @ g)
        accepted = False
        cand = spare_x
        for _ in range(_MAX_HALVINGS):
            # x - alpha * g; g is +0.0 on fixed nodes, so cand equals x there bit for bit
            np.subtract(x, np.multiply(alpha, g, out=cand), out=cand)
            point = _Iterate(spec, cand.reshape(spec.counts), boxes=boxes, planes=point.planes)
            ec = energy(point)
            if ec <= e - _ARMIJO * alpha * gg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            ls_failed = True
            break
        x, spare_x = cand, x
        e, last_alpha = ec, alpha
        g, spare_g = masked_grad(point, spare_g), g
        e_trace.append(e)
        g_trace.append(float(max(g.max(), -g.min())))
        iterations += 1

    return SolveReport(
        phi=GridFunction(spec, x.reshape(spec.counts)),
        energy_trace=np.asarray(e_trace),
        gradient_trace=np.asarray(g_trace),
        iterations=iterations,
        converged=g_trace[-1] <= tol,
        line_search_failed=ls_failed,
        calibration_gap=e - spec.size * spec.cell_volume,
    )


def _local_area_sum(spec: GridSpec, vals: np.ndarray, box: tuple) -> float:
    return float(np.sum(_area(GridFunction(spec, vals))[box]))


def gradient_check(
    f: GridFunction,
    num_nodes: int = 100,
    step: float = 1e-6,
    seed: int = 0,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Differences are summed over the stencil neighborhood of each probed
    node only; outside it the area integrand does not change, so this is
    the same difference without the cancellation noise of the full sum.
    """
    spec = f.spec
    g = energy_gradient(f)
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
            _local_area_sum(spec, vp, box) - _local_area_sum(spec, vm, box)
        ) * spec.cell_volume / (2.0 * eps)
        denom = max(abs(g[j]), abs(fd), scale)
        if denom > 1e-14:
            worst = max(worst, abs(g[j] - fd) / denom)
    return worst
