"""Intrinsic graphs over the vertical hyperplane on uniform grids.

Grid nodes are cell centers; quadrature is the midpoint rule, so a grid
function carries a measure h^{2n} per node.  Derivatives use centered
second-order stencils with one-sided second-order stencils at the grid
boundary.  The intrinsic gradient couples the horizontal fields with the
Burgers operator B(phi) = d(phi)/dy_1 - 4 phi d(phi)/dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core

__all__ = [
    "GridSpec",
    "GridFunction",
    "IntrinsicGradient",
    "ConeViolationError",
    "ExtensionConvergenceError",
    "grid_nodes",
    "intrinsic_gradient",
    "phi_ball",
    "lipschitz_estimate",
    "extension_constant",
    "extend_lipschitz",
]


class ConeViolationError(ValueError):
    """Partial data is not intrinsic Lipschitz with the requested constant."""


class ExtensionConvergenceError(RuntimeError):
    """Cone-infimum fixed point did not reach tolerance within the cap."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"extension fixed point stalled: residual {residual:.3e} after {iterations} iterations"
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on W: axes ordered (x_2..x_n, y_1..y_n, t).

    `origin` is the coordinate of node (0,...,0); node k sits at
    origin + k*h and owns a cell of volume h^{2n} centered on it.
    """

    n: int
    origin: tuple[float, ...]
    h: float
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 0 < self.h < math.inf:  # NaN fails too
            raise ValueError(f"spacing must be positive and finite, got {self.h}")
        if len(self.origin) != 2 * self.n or len(self.counts) != 2 * self.n:
            raise ValueError("origin/counts must have 2n entries")
        if any(c < 1 for c in self.counts):
            raise ValueError("all axis counts must be >= 1")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def centered(cls, n: int, half: float | tuple[float, ...], h: float) -> "GridSpec":
        """Grid of cells tiling [-half, half] per axis, centered on 0.

        Halfwidths snap to integer multiples of h, which keeps cell
        centers at half-integer multiples of h on every axis; grids built
        this way share cell centers regardless of extent.
        """
        if not 0 < h < math.inf:  # before the division below
            raise ValueError(f"spacing must be positive and finite, got {h}")
        if np.isscalar(half):
            half = (float(half),) * (2 * n)
        counts = tuple(max(2, 2 * round(hw / h)) for hw in half)
        origin = tuple(-(c - 1) * h / 2.0 for c in counts)
        return cls(n, origin, float(h), counts)

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return self.h ** (2 * self.n)

    def axis_values(self, k: int) -> np.ndarray:
        return self.origin[k] + self.h * np.arange(self.counts[k])

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (size, 2n), C-order of the index grid."""
        return grid_nodes(self)

    def locate(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat index of the cell containing each point, plus an inside mask."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        idx = np.floor((w - np.array(self.origin)) / self.h + 0.5).astype(int)
        inside = np.all((idx >= 0) & (idx < np.array(self.counts)), axis=-1)
        idx_clipped = np.clip(idx, 0, np.array(self.counts) - 1)
        flat = np.ravel_multi_index(tuple(idx_clipped.T), self.counts)
        return flat, inside

    def boundary_mask(self, layers: int = 1) -> np.ndarray:
        """Mask (shape counts) of nodes within `layers` of the grid edge."""
        m = np.zeros(self.counts, dtype=bool)
        for ax in range(2 * self.n):
            sl = [slice(None)] * (2 * self.n)
            sl[ax] = slice(0, layers)
            m[tuple(sl)] = True
            sl[ax] = slice(self.counts[ax] - layers, self.counts[ax])
            m[tuple(sl)] = True
        return m

    def coordinate_field(self, k: int) -> np.ndarray:
        """Axis-k coordinate broadcast over the full grid shape."""
        shape = [1] * (2 * self.n)
        shape[k] = self.counts[k]
        return self.axis_values(k).reshape(shape)


@functools.lru_cache(maxsize=32)
def grid_nodes(spec: GridSpec) -> np.ndarray:
    axes = [spec.axis_values(k) for k in range(2 * spec.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.stack([m.ravel() for m in mesh], axis=-1)
    out.setflags(write=False)
    return out


def _node_block(spec: GridSpec, rows: slice) -> np.ndarray:
    """grid_nodes(spec)[rows] bit for bit, without the whole-grid array.

    `rows` is a slice of flat node indices; each coordinate is
    spec.axis_values(k) at the unravelled index, as in the meshgrid.
    Axis k holds each value for prod(counts[k + 1:]) consecutive nodes,
    so its column gathers axis_values(k) at flat // run % counts[k].  A
    grid whose node array fits one _BLOCK_BYTES block reads it from
    grid_nodes' cache instead, so callers that revisit a small grid (the
    verify battery builds 50 fields on one) rebuild nothing.
    """
    if 8 * 2 * spec.n * spec.size <= core._BLOCK_BYTES:
        return grid_nodes(spec)[rows]
    flat = np.arange(*rows.indices(spec.size))
    out, run = np.empty((len(flat), 2 * spec.n)), spec.size
    for k, c in enumerate(spec.counts):
        run //= c
        np.take(spec.axis_values(k), flat // run % c, out=out[:, k])
    return out


@dataclass
class GridFunction:
    """Real-valued function phi on the nodes of a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.counts:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.spec.counts}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        """phi = fn(nodes), evaluated one core._row_blocks block of nodes at a time.

        fn must be row-wise: it maps an (m, 2n) array of node coordinates
        to the m values at those nodes, whatever m is, so no array of all
        the grid's nodes is built.  The blocks come in node order.
        """
        values = np.empty(spec.size)
        for blk in core._row_blocks(spec.size, 2 * spec.n):
            values[blk] = fn(_node_block(spec, blk))
        return cls(spec, values.reshape(spec.counts))

    @classmethod
    def constant(cls, spec: GridSpec, c: float) -> "GridFunction":
        return cls(spec, np.full(spec.counts, float(c)))

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def interp(self, w: np.ndarray) -> np.ndarray:
        """Multilinear interpolation, extended by the edge values over the
        outer half of the edge cells; raises on a point that spec.locate
        puts outside the grid."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        u = (w - np.array(self.spec.origin)) / self.spec.h
        cell = np.floor(u + 0.5)  # spec.locate's rounding
        if not np.all((cell >= 0) & (cell < np.array(self.spec.counts))):
            raise ValueError("interpolation point outside grid domain")
        hi = np.array(self.spec.counts, dtype=float) - 1.0
        u = np.clip(u, 0.0, hi)
        i0 = np.minimum(np.floor(u).astype(int), np.maximum(np.array(self.spec.counts) - 2, 0))
        frac = u - i0
        d = 2 * self.spec.n
        out = np.zeros(w.shape[0])
        for corner in range(1 << d):
            offs = np.array([(corner >> k) & 1 for k in range(d)])
            idx = np.minimum(i0 + offs, np.array(self.spec.counts) - 1)
            wgt = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=-1)
            out += wgt * self.values[tuple(idx.T)]
        return out

    def graph(self) -> np.ndarray:
        """Graph points Phi(node) for every node, shape (size, 2n+1)."""
        return core.graph_points(self.spec.nodes(), self.flat)


@dataclass
class IntrinsicGradient:
    """Components (X_2 phi .. X_n phi, B phi, Y_2 phi .. Y_n phi) on the grid."""

    spec: GridSpec
    components: np.ndarray  # shape (2n-1,) + counts
    dt: np.ndarray  # d(phi)/dt, shape counts

    def norm_sq(self) -> np.ndarray:
        counts = self.spec.counts
        return _norm_sq_into(self.components, np.empty(counts), np.empty(counts))

    def norm(self) -> np.ndarray:
        return np.sqrt(self.norm_sq())


def _norm_sq_into(comps: np.ndarray, out: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Sum of squares over the leading axis of comps, written into out; sq is scratch.

    Summed in component order, as np.sum(comps**2, axis=0) does.
    """
    np.multiply(comps[0], comps[0], out=out)
    for c in comps[1:]:
        out += np.multiply(c, c, out=sq)
    return out


def _sl(ndim: int, axis: int, s) -> tuple:
    """Index selecting `s` along one axis and everything along the others."""
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def _slab(v: np.ndarray, axis: int, box: tuple):
    """Operands of a stencil along `axis` over `box`.

    Returns (v, a, b): v cut to `box` on every axis but `axis`, and the
    grid indices a..b-1 the stencil writes along it, so the stencil reads
    its neighbours along `axis` outside the box.  Its output is shaped
    like the box: grid index i along `axis` is its index i - a.
    """
    cut = box[:axis] + (slice(None),) + box[axis + 1:]
    return v[cut], box[axis].start, box[axis].stop


def _tail_rows(x: np.ndarray, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (rows, layers) of x for a stencil along an m-node axis whose
    layers lie s nodes apart, y_n (s = counts[-1]) or t (s = 1).

    rows is x as (..., L), its last three axes merged into one contiguous
    run per leading index: x is a stencil slab, or a plane shaped like
    one, of a box that keeps (y_n, t) whole, so those axes and the box's
    last cut axis are one run of rows in memory.  layers is rows as
    (..., blocks, m, s), layer k of the axis being [..., k, :].
    """
    rows = x.reshape(x.shape[:-3] + (-1,), copy=False)
    return rows, rows.reshape(rows.shape[:-1] + (-1, m, s), copy=False)


def _partial(v: np.ndarray, h: float, axis: int, out: np.ndarray, box: tuple) -> np.ndarray:
    """np.gradient(v, h, axis=axis, edge_order=2) over `box`, written into out.

    Bit for bit: centered differences inside, numpy's one-sided
    second-order coefficients on the two end layers, evaluated in numpy's
    order.  `box` holds one slice with explicit bounds per axis and `out`
    is shaped like it (a view of a whole-grid plane cut to the box, or a
    plane of its own); returns out.

    Along y_n and t, which `box` keeps whole, the centered differences
    run over each contiguous run of _tail_rows at once, as subtracts of
    the run shifted by one layer.
    That wraps across the axis' ends, and the end layers, written last,
    overwrite every wrapped value.
    """
    nd = v.ndim
    if axis >= nd - 2:
        m, s = v.shape[axis], math.prod(v.shape[axis + 1:])
        (rows, v), (res_rows, res) = _tail_rows(v[box], m, s), _tail_rows(out, m, s)
        mid = res_rows[..., s:-s]
        np.subtract(rows[..., 2 * s:], rows[..., :-2 * s], out=mid)
        nd, axis, a, b = v.ndim, v.ndim - 2, 0, m
    else:
        v, a, b = _slab(v, axis, box)
        lo = max(a, 1)
        hi = max(min(b, v.shape[axis] - 1), lo)
        res, mid = out, out[_sl(nd, axis, slice(lo - a, hi - a))]
        np.subtract(
            v[_sl(nd, axis, slice(lo + 1, hi + 1))], v[_sl(nd, axis, slice(lo - 1, hi - 1))],
            out=mid,
        )
    np.divide(mid, 2.0 * h, out=mid)
    last = v.shape[axis] - 1
    for end, layers, coefs in (
        (0, (0, 1, 2), (-1.5, 2.0, -0.5)),
        (last, (-3, -2, -1), (0.5, -2.0, 1.5)),
    ):
        if a <= end < b:
            c0, c1, c2 = (k / h for k in coefs)
            fi, fj, fk = (v[_sl(nd, axis, layer)] for layer in layers)
            res[_sl(nd, axis, end - a)] = c0 * fi + c1 * fj + c2 * fk
    return out


def _map_slabs(fn, spec: GridSpec, box: tuple | None = None) -> None:
    """Run fn(slab) on the x_2-slabs of `box` (the whole grid by default):
    core._map_blocks over the box's axis-0 rows, each slab the box cut to
    one block of them.

    The rows split evenly into as many blocks as core._row_blocks makes,
    rounded down to a multiple of core._WORKERS, so each worker takes an
    equal share in as few slabs as the budget allows: at h = 0.1 the
    16-row energy box runs as 8 + 8 rows, not 6 + 6 + 4.  Each slab costs
    a fixed run of numpy calls, so rounding up, to 4 + 4 + 4 + 4, measured
    slower.
    """
    box = tuple(slice(0, c) for c in spec.counts) if box is None else box
    start, rest = box[0].start, box[1:]
    rows, cols = box[0].stop - start, math.prod(s.stop - s.start for s in rest)
    k = len(list(core._row_blocks(rows, cols)))
    if k > core._WORKERS:
        k -= k % core._WORKERS
    blocks = [slice(rows * i // k, rows * (i + 1) // k) for i in range(k)]

    def slab(blk: slice) -> None:
        fn((slice(start + blk.start, start + blk.stop),) + rest)

    core._map_blocks(slab, blocks)


@functools.lru_cache(maxsize=8)
def _twice_coordinates(spec: GridSpec, first: int) -> tuple[np.ndarray, ...]:
    """2 * the coordinate of axes first..first+n-2, each over the full grid
    shape, so a slab's box slices it: (2 y_2..2 y_n) for first = n and
    (2 x_2..2 x_n) for first = 0.

    A field of one of the tail axes 2n-3..2n-1 (a stencil box's last cut
    axis, y_n and t; see _tail_rows) is stored whole over the tail, so its
    products with a slab's planes run over each contiguous run at once;
    the other fields are constant along the tail.  Made once per spec and
    read-only.
    """
    tail = 2 * spec.n - 3
    fields = []
    for k in range(first, first + spec.n - 1):
        c = 2.0 * spec.coordinate_field(k)
        if k >= tail:
            c = np.broadcast_to(c.reshape(c.shape[tail:]), spec.counts[tail:]).copy()
        fields.append(np.broadcast_to(c, spec.counts))
    return tuple(fields)


def _cuts_tail(box: tuple, counts: tuple) -> bool:
    """Whether `box` cuts y_n or t, the last two of the axes `counts` sizes."""
    return any((s.start, s.stop) != (0, c) for s, c in zip(box[-2:], counts[-2:]))


def _relative(slab: tuple, box: tuple | None) -> tuple:
    """`slab`, a box in grid indices, indexed into planes shaped like `box`
    (planes of the whole grid's shape when box is None)."""
    if box is None:
        return slab
    return tuple(slice(s.start - b.start, s.stop - b.start) for s, b in zip(slab, box))


def _slab_planes(spec: GridSpec, area: np.ndarray | None = None):
    """The grid as x_2-slabs of whole axis-0 rows, each with the
    (components, dt, tmp, area) planes of a stencil pass shaped like it.

    A slab's nodes fill at most one core._row_blocks block at 2n + 1
    floats a node (a graph sample's width), so each plane fits
    _BLOCK_BYTES.  The planes are made once, for the first (longest) slab,
    and every slab reuses their leading rows; a grid-shaped `area` gives
    each slab its box view of that plane instead.  Yields (slab box, planes).
    """
    n, counts = spec.n, spec.counts
    slabs = list(core._row_blocks(counts[0], (2 * n + 1) * (spec.size // counts[0])))
    shape = (slabs[0].stop,) + counts[1:]
    comps, dt, tmp = np.empty((2 * n - 1,) + shape), np.empty(shape), np.empty(shape)
    own = np.empty(shape) if area is None else None
    rest = tuple(slice(0, c) for c in counts[1:])
    for slab in slabs:
        k, box = slab.stop - slab.start, (slab,) + rest
        yield box, (comps[:, :k], dt[:k], tmp[:k], area[box] if own is None else own[:k])


def intrinsic_gradient(f: GridFunction, box=None, out=None) -> IntrinsicGradient:
    """Finite-difference intrinsic gradient of a graph function.

    X_i phi = d/dx_i + 2 y_i d/dt, Y_i phi = d/dy_i - 2 x_i d/dt for
    i = 2..n, and the Burgers component B phi = d/dy_1 - 4 phi d/dt.
    The result also carries d(phi)/dt.  The stencils run in row slabs
    along axis 0 (x_2) on core._map_blocks; every stencil pass of the
    package runs here.

    `out` = (components, dt, tmp, area) makes the pass write into those
    planes (tmp is scratch) and also write the area element
    sqrt(1 + |grad phi|^2) into area.  With it, `box` (one slice per axis
    with explicit bounds, the whole grid by default) limits the pass to
    those nodes; it keeps y_n and t whole (see _partial) and raises
    ValueError if it cuts either.  All four planes are shaped like the
    box, grid node i at i - box start, and the result holds the first two
    as they are.  A box without `out` raises ValueError.
    """
    spec, v = f.spec, f.values
    n, h = spec.n, spec.h
    if min(spec.counts) < 3:
        raise ValueError("intrinsic gradient needs at least 3 nodes per axis")
    if box is not None and _cuts_tail(box, spec.counts):
        raise ValueError(f"a stencil box keeps y_n and t whole, got {box[-2:]}")
    if box is not None and out is None:
        raise ValueError("a pass over a box writes into planes shaped like it: pass out")
    if out is None:  # dt first: the other order raised verify's peak RSS by ~1 MB
        dt = np.empty(spec.counts)
        out = np.empty((2 * n - 1,) + spec.counts), dt, np.empty(spec.counts), None
    comps, dt, tmp, area = out
    ys, xs = _twice_coordinates(spec, n), _twice_coordinates(spec, 0)

    def block(slab: tuple) -> None:
        r = _relative(slab, box)
        c, t = comps[(slice(None),) + r], tmp[r]
        d = _partial(v, h, 2 * n - 1, dt[r], slab)
        for i in range(2, n + 1):
            x_comp = _partial(v, h, i - 2, c[i - 2], slab)
            x_comp += np.multiply(ys[i - 2][slab], d, out=t)
        b_comp = _partial(v, h, n - 1, c[n - 1], slab)
        np.multiply(4.0, v[slab], out=t)
        b_comp -= np.multiply(t, d, out=t)
        for i in range(2, n + 1):
            y_comp = _partial(v, h, n + i - 2, c[n + i - 2], slab)
            y_comp -= np.multiply(xs[i - 2][slab], d, out=t)
        if area is not None:
            a = _norm_sq_into(c, area[r], t)
            a += 1.0
            np.sqrt(a, out=a)

    _map_slabs(block, spec, box)
    return IntrinsicGradient(spec, comps, dt)


def _area(f: GridFunction) -> np.ndarray:
    """The area element sqrt(1 + |grad phi|^2) over the whole grid, one
    _slab_planes slab at a time on the caller, each pass writing its
    slab's box view of the area: the only grid-sized array it makes is
    the area.
    """
    area = np.empty(f.spec.counts)
    for slab, planes in _slab_planes(f.spec, area):
        intrinsic_gradient(f, slab, planes)
    return area


def _sym_dist(p: np.ndarray, q: np.ndarray, planes=None) -> np.ndarray:
    """Symmetrized quasi-distance between graph points, broadcasting like
    pi_rel_norm (and taking its planes)."""
    a, b = core.pi_rel_norm(p, q, both=True, planes=planes)
    a += b
    a *= 0.5
    return a


def _graph_point(f: GridFunction, x: np.ndarray) -> np.ndarray:
    """Graph point Phi(x) of one W point, interpolating phi."""
    return core.graph_points(x, f.interp(x[None, :])[0])


def phi_ball(f: GridFunction, x: np.ndarray, r: float) -> tuple[np.ndarray, bool]:
    """Cells of the grid inside the graph-distance ball U(x, r).

    Returns (flat mask, exits flag); the flag is set when the ball touches
    the outermost node layer, meaning the true ball is not fully covered by
    the grid.
    """
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    x = np.asarray(x, dtype=float)
    mask = _sym_dist(_graph_point(f, x), f.graph()) < r
    exits = bool(np.any(mask & f.spec.boundary_mask().ravel()))
    return mask, exits


def _pair_stream(m: int, budget: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pair sample; a larger budget extends a smaller one."""
    # fixed-size chunks with derived seeds so budgets share a common prefix
    chunks_i, chunks_j, got = [], [], 0
    k = 0
    while got < budget:
        rng = np.random.default_rng((seed, k))
        take = min(4096, budget - got)
        block = rng.integers(0, m, size=(2, 4096))
        chunks_i.append(block[0, :take])
        chunks_j.append(block[1, :take])
        got += take
        k += 1
    return np.concatenate(chunks_i), np.concatenate(chunks_j)


def lipschitz_estimate(
    f: GridFunction,
    pair_budget: int = 20000,
    seed: int = 0,
    subset: np.ndarray | None = None,
) -> float:
    """Sampled lower bound for the intrinsic Lipschitz constant of f.

    Ratios |phi(w) - phi(w')| / ||proj(Phi(w')^-1 Phi(w))|| over random node
    pairs, both orderings.  Distinct nodes lie at a positive graph distance,
    since proj(Phi(w)) = w; pairs at zero distance (a `subset` index
    repeated) carry equal values and are skipped.
    """
    nodes = f.spec.nodes()
    vals = f.flat
    if subset is not None:
        nodes = nodes[subset]
        vals = vals[subset]
    m = len(vals)
    if m < 2:
        return 0.0
    i, j = _pair_stream(m, pair_budget, seed)
    keep = i != j
    i, j = i[keep], j[keep]
    pi_ = core.graph_points(nodes[i], vals[i])
    pj = core.graph_points(nodes[j], vals[j])
    num = np.abs(vals[i] - vals[j])
    den, back = core.pi_rel_norm(pj, pi_, both=True)
    np.minimum(den, back, out=den)
    ok = den >= 1e-15
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))


def extension_constant(L: float) -> float:
    """Cone opening M(L) = (sqrt(1 + 1/(L + 2L^2)) - 1)^-2 used to extend.

    Satisfies M(L) <= 2L for L <= 0.07 and M -> 0 as L -> 0.
    """
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return (math.sqrt(1.0 + 1.0 / (L + 2.0 * L * L)) - 1.0) ** -2


def _cone_ratio(nodes: np.ndarray, vals: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Exact max |dphi| / d_phi over all pairs of partial data, and a pair attaining it.

    d_phi is the smaller of the two projected quasi-distances; distinct
    values at zero graph distance raise ConeViolationError.  Each block
    holds the pairs (i, i) of its own rows, so pairs at zero distance are
    floored to ratio 0 in every block.

    The ratio is symmetric bit for bit, so row block [a, b) only meets
    columns a: , and takes as many rows as core._triangle_blocks fits at
    that width.  The row-major first maximum of the full matrix lies in
    the upper triangle, which every block covers whatever its bounds, so
    the witness is the one the full matrix would give.
    """
    pts = np.asfortranarray(core.graph_points(nodes, vals))  # contiguous columns
    m = len(vals)
    blocks = list(core._triangle_blocks(m))
    first = blocks[0].stop * m if m else 0  # the largest plane

    def block(blk):
        a = blk.start
        shape = (blk.stop - a, m - a)
        # every block asks for the first block's planes, so no arena regrows
        planes = [p.ravel()[: shape[0] * shape[1]].reshape(shape) for p in core._planes(4, (first,))]
        den, back = core.pi_rel_norm(pts[None, a:, :], pts[blk, None, :], both=True, planes=planes)
        np.minimum(den, back, out=den)
        num = np.abs(np.subtract(vals[blk, None], vals[None, a:], out=back), out=back)
        ok = den >= 1e-15
        if np.any(~ok & (num > 1e-12)):
            raise ConeViolationError("distinct values at zero graph distance in partial data")
        ratio = np.divide(num, np.maximum(den, 1e-300, out=den), out=den)
        np.copyto(ratio, 0.0, where=~ok)
        k = int(np.argmax(ratio))
        return a, float(ratio.flat[k]), k

    # blocks reduced in block order with a strict >, as one serial pass would
    worst, pair = 0.0, (-1, -1)
    for a, best, k in core._map_blocks(block, blocks):
        if best > worst:
            worst, pair = best, (a + k // (m - a), a + k % (m - a))
    return worst, pair


# the cone-infimum fixed point stops once no value moves more than
# _EXTENSION_TOL, and gives up after _EXTENSION_MAX_ITER sweeps
_EXTENSION_TOL = 1e-10
_EXTENSION_MAX_ITER = 100


@dataclass
class ExtensionReport:
    iterations: int
    residual: float


def extend_lipschitz(
    spec: GridSpec,
    indices: np.ndarray,
    values: np.ndarray,
    sup_bound: float,
    m_const: float,
) -> tuple[GridFunction, ExtensionReport]:
    """Extend partial graph data to the whole grid by iterated cone infima.

    The data on node subset K must satisfy the cone condition with some
    constant L, which the caller checks (_cone_ratio).  Off K the value is
    the fixed point of psi(w) = min_q [phi(q) + M ||proj(Phi(q)^-1 (w *
    psi(w) e_1))||] with cone opening M = m_const (extension_constant(L)
    in the theory), seeded from nearest-sample values.  Iterates are
    clamped to [-sup_bound, sup_bound], so a sup_bound at the data's sup
    norm preserves it; math.inf clamps nothing.
    """
    indices = np.asarray(indices, dtype=int)
    values = np.asarray(values, dtype=float)
    if len(indices) == 0:
        raise ValueError("empty partial data")
    if len(np.unique(indices)) != len(indices):
        raise ValueError("duplicate node indices in partial data")
    nodes = spec.nodes()
    kn = nodes[indices]
    if np.max(np.abs(values)) > sup_bound * (1 + 1e-12):
        raise ValueError("partial data exceeds the requested sup bound")

    out = np.empty(spec.size)
    out[indices] = values
    mask = np.zeros(spec.size, dtype=bool)
    mask[indices] = True
    fill = np.nonzero(~mask)[0]
    report_iters, residual = 0, 0.0
    if len(fill) > 0:
        pk = np.asfortranarray(core.graph_points(kn, values))  # contiguous columns
        wf = nodes[fill]
        psi = np.empty(len(fill))

        def seed(blk):  # the nearest sample in the W metric
            planes = core._planes(3, (blk.stop - blk.start, len(kn)))
            d = core.w_dinf(wf[blk, None, :], kn[None, :, :], planes=planes)
            psi[blk] = values[np.argmin(d, axis=1)]

        def sweep(blk):  # one cone infimum from psi into new
            pw = core.graph_points(wf[blk], psi[blk])
            planes = core._planes(4, (blk.stop - blk.start, len(kn)))
            cand = core.pi_rel_norm(pk[None, :, :], pw[:, None, :], planes=planes)
            cand *= m_const
            new[blk] = np.min(np.add(values, cand, out=cand), axis=1)

        core._map_blocks(seed, core._row_blocks(len(fill), len(kn)))
        for it in range(1, _EXTENSION_MAX_ITER + 1):
            new = np.empty_like(psi)
            core._map_blocks(sweep, core._row_blocks(len(fill), len(kn)))
            np.clip(new, -sup_bound, sup_bound, out=new)
            residual = float(np.max(np.abs(new - psi)))
            psi = new
            report_iters = it
            if residual <= _EXTENSION_TOL:
                break
        else:
            raise ExtensionConvergenceError(residual, _EXTENSION_MAX_ITER)
        out[fill] = psi
    return GridFunction(spec, out.reshape(spec.counts)), ExtensionReport(report_iters, residual)
