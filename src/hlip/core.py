"""Heisenberg group arithmetic and the geometry of the vertical hyperplane.

Points of H^n live in R^{2n+1} with coordinates (x_1..x_n, y_1..y_n, t).
The vertical hyperplane W = {x_1 = 0} is identified with R^{2n} via the
coordinates (x_2..x_n, y_1..y_n, t).  Points are plain float arrays of
shape (..., 2n+1) or (..., 2n); every function broadcasts over the leading
axes.  Everything here is exact arithmetic and the hot path for the rest
of the package.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

__all__ = [
    "constants",
    "unit_ball_volume",
    "mul",
    "inv",
    "dilate_arr",
    "box",
    "dinf",
    "proj",
    "cylnorm",
    "embed_w",
    "w_dinf",
    "graph_points",
    "pi_rel_norm",
]


def unit_ball_volume(k: int) -> float:
    """Lebesgue measure of the unit ball in R^k."""
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def constants(n: int) -> tuple[float, float, float, float]:
    """Return (kappa, delta, omega_{2n-1}, omega_{2n+1}) for H^n.

    kappa is the Lebesgue measure of the unit disk of the vertical
    hyperplane, L^{2n}(D_1) = 2 * omega_{2n-1}; disks scale as
    L^{2n}(D_r) = kappa * r^{2n+1}.  delta = 2*omega_{2n-1}/omega_{2n+1}
    normalizes the spherical measure of horizontal perimeter.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    lo = unit_ball_volume(2 * n - 1)
    hi = unit_ball_volume(2 * n + 1)
    return 2.0 * lo, 2.0 * lo / hi, lo, hi


# ---------------------------------------------------------------------------
# array core: H-points are (..., 2n+1) float arrays [x_1..x_n, y_1..y_n, t]


def _split(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    m = p.shape[-1]
    n = (m - 1) // 2
    if 2 * n + 1 != m or n < 2:
        raise ValueError(f"bad H-point coordinate count {m}")
    return p[..., :n], p[..., n : 2 * n], p[..., 2 * n], n


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Group product p*q; t picks up 2*sum(y_p x_q - x_p y_q)."""
    px, py, pt, n = _split(np.asarray(p, dtype=float))
    qx, qy, qt, n2 = _split(np.asarray(q, dtype=float))
    if n != n2:
        raise ValueError(f"dimension mismatch: n={n} vs n={n2}")
    out = np.empty(np.broadcast_shapes(np.shape(p), np.shape(q)), dtype=float)
    out[..., :n] = px + qx
    out[..., n : 2 * n] = py + qy
    out[..., 2 * n] = pt + qt + 2.0 * (np.sum(py * qx, axis=-1) - np.sum(px * qy, axis=-1))
    return out


def inv(p: np.ndarray) -> np.ndarray:
    return -np.asarray(p, dtype=float)


def dilate_arr(lam: float, p: np.ndarray) -> np.ndarray:
    """Anisotropic dilation: z -> lam*z, t -> lam^2*t."""
    if lam <= 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    p = np.asarray(p, dtype=float)
    out = lam * p.copy()
    out[..., -1] = lam * lam * p[..., -1]
    return out


def box(p: np.ndarray) -> np.ndarray:
    """Box norm max(|z|, |t|^(1/2)); homogeneous and a genuine metric norm."""
    p = np.asarray(p, dtype=float)
    # squares summed left to right in two planes, never a (..., 2n) one;
    # for fewer than 8 terms (n <= 3) that is np.sum's order on that axis
    z, u = np.empty(p.shape[:-1]), np.empty(p.shape[:-1])
    np.square(p[..., 0], out=z)
    for k in range(1, p.shape[-1] - 1):
        z += np.square(p[..., k], out=u)
    return _box_of(z, np.abs(p[..., -1], out=u))


# a W point (x_2..x_n, y_1..y_n, t) also ends in t, so its box norm is box
w_box = box


def proj(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split p = w * (h e_1): return W coordinates and the height h = x_1.

    In coordinates the projection is (x_2..x_n, y_1..y_n, t - 2 x_1 y_1).
    """
    px, py, pt, n = _split(np.asarray(p, dtype=float))
    w = np.empty(np.shape(p)[:-1] + (2 * n,), dtype=float)
    w[..., : n - 1] = px[..., 1:]
    w[..., n - 1 : 2 * n - 1] = py
    w[..., 2 * n - 1] = pt - 2.0 * px[..., 0] * py[..., 0]
    return w, px[..., 0].copy()


def cylnorm(p: np.ndarray) -> np.ndarray:
    """Cylinder quasi-norm max(||proj(p)||_inf, |height(p)|)."""
    w, h = proj(p)
    return np.maximum(box(w), np.abs(h, out=h))


def embed_w(w: np.ndarray) -> np.ndarray:
    """W coordinates (x_2..x_n, y_1..y_n, t) -> H-point with x_1 = 0."""
    w = np.asarray(w, dtype=float)
    m = w.shape[-1]
    n = m // 2
    if 2 * n != m or n < 2:
        raise ValueError(f"bad W-point coordinate count {m}")
    p = np.empty(w.shape[:-1] + (2 * n + 1,), dtype=float)
    p[..., 0] = 0.0
    p[..., 1:n] = w[..., : n - 1]
    p[..., n : 2 * n] = w[..., n - 1 : 2 * n - 1]
    p[..., 2 * n] = w[..., 2 * n - 1]
    return p


def graph_points(w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Graph map Phi(w) = w * (phi(w) e_1); heights shear t by 2 y_1 phi."""
    p = embed_w(w)
    phi = np.asarray(phi, dtype=float)
    n = w.shape[-1] // 2
    p[..., 0] = phi
    p[..., 2 * n] += 2.0 * w[..., n - 1] * phi
    return p


# ---------------------------------------------------------------------------
# fused pair kernels
#
# The three pair kernels read the coordinate columns p[..., k], q[..., k]
# and write every intermediate into a few preallocated planes of the
# broadcast shape, so they never form a (..., 2n+1) product or sum over a
# trailing axis.  Their sums run left to right, which is how numpy adds a
# trailing axis of fewer than 8 terms, so for n < 4 each kernel agrees bit
# for bit with its broadcast formula: box(mul(inv(p), q)) for dinf,
# box(proj(mul(inv(p), q))[0]) for pi_rel_norm.
# (-p) + q and q - p are the same IEEE operation, and so are x + 2(-s)
# and x - 2s, so dinf and w_dinf share the twist of pi_rel_norm.
#
# Swapping p and q negates every coordinate difference and the twist
# exactly, because IEEE rounding is symmetric in sign; the squares and the
# shear 2 dx_1 dy_1 stay the same.  So tau of (q, p) is -(twist + shear),
# and pi_rel_norm(both=True) pays for the second order with one add, abs,
# max and sqrt: each order takes its one sqrt after the max (_box_of), so
# z^2 serves both.  It keeps four planes: z^2 into A (B scratch),
# the twist into D (B and C scratch), then the shear into B, twist + shear
# into C and tau into D.
#
# A block of a _map_blocks loop passes `planes`: the kernel's planes of
# the pair shape (four for pi_rel_norm, three for w_dinf) from _planes,
# and gets its result in some of them; dinf runs on the caller only, in
# the nearest-sample search, and always allocates.  Without it a call
# allocates fresh planes, so a public caller owns its result.  A block
# loop also hands its long side (the columns of every block) over in
# Fortran order, so each coordinate column the kernel reads is contiguous;
# that changes no value and makes the kernel about a fifth faster.

# bytes of one (rows x cols) float64 plane in a row-blocked loop.  A block
# of an all-pairs loop takes its kernel's three or four planes from its
# worker's arena (_planes) and writes its own temporaries (|dphi|, the
# ratios, the broadcast masses) into planes the kernel's result has left
# or spent.  Each worker allocates its arena at its first request and
# drops it when the _map_blocks call returns, so the live planes stay
# within _WORKERS x 4 x 512 KiB, allocated once per call, not per block.
# Per block only the outputs of np.searchsorted and np.bincount (the
# maximal functions' ladder bins and ladder tables, each within one plane,
# because those loops count the ladder's columns in their block width) and
# a few bool masks of an eighth of a plane still allocate.
# The grid stencil passes (graph.intrinsic_gradient, the one driver of
# the stencils, with the area element folded in, and
# optimize.energy_gradient) block a box of a grid along axis 0 instead,
# sized by the box's columns and evened out across the workers
# (graph._map_slabs): each block reads the whole-grid inputs and
# writes one slab of the box into each output and scratch plane, all
# shaped like the box, which a descent allocates once and reuses from
# point to point, so they ask for no arena planes and allocate nothing
# per block.  graph._slab_planes cuts a whole grid into x_2-slabs of at
# most one block each, with four slab planes every slab reuses, for one
# pass per slab on the caller: surface._graph_blocks and graph._area.
_BLOCK_BYTES = 1 << 19

# threads that run the blocks of one _map_blocks call: the caller and at
# most one helper.  numpy's kernels release the GIL, so two threads use two
# cores; a second helper would cost another glibc malloc arena, which is
# what raises peak RSS, for no core left to run on.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(2, len(os.sched_getaffinity(0)))
else:  # no CPU affinity mask outside Linux
    _WORKERS = min(2, os.cpu_count() or 1)
_helper = None  # the helper's executor, started by the first call that needs it
_arena = threading.local()  # .planes: the running _map_blocks call's planes on this thread


def _row_blocks(rows: int, cols: int):
    """Consecutive row slices covering range(rows) whose (rows x cols)
    float64 plane fits _BLOCK_BYTES.  A row over budget comes alone, so a
    block's plane is bounded by one row, 8 * cols bytes, not by the budget."""
    step = max(1, _BLOCK_BYTES // (8 * max(cols, 1)))
    for a in range(0, rows, step):
        yield slice(a, min(a + step, rows))


def _triangle_blocks(m: int):
    """Consecutive row slices [a, b) covering range(m) whose (b - a) x
    (m - a) plane fits the first block's plane of _row_blocks(m, m): the
    blocks of the upper triangle of an m x m matrix, each as tall as its
    own width allows, so no block's plane outgrows the first one's."""
    cap = max(1, _BLOCK_BYTES // (8 * max(m, 1))) * m
    a = 0
    while a < m:
        b = min(m, a + max(1, cap // (m - a)))
        yield slice(a, b)
        a = b


def _map_blocks(fn, blocks) -> list:
    """[fn(blk) for blk in blocks], in block order: the row slices of
    _row_blocks, _triangle_blocks or graph._map_slabs' even split.

    With _WORKERS = 2 and more than one block, the caller and one helper
    thread run the same loop, each taking the next block from a shared
    counter.  fn must write only its own block's rows of any shared output,
    and must not call _map_blocks itself.  An exception in a block stops the
    blocks not yet taken; the call waits for the helper to finish its block
    and re-raises the exception unchanged.

    Each thread keeps an arena of scratch planes for the call: fn gets them
    from _planes, the arena grows at the first request and is reused by
    every later block that thread runs, and it is freed when the call
    returns.  So the live scratch is at most _WORKERS arenas of a few
    planes of one block (see _BLOCK_BYTES), and fn must copy out whatever
    it keeps of a plane before it returns.

    Consecutive calls are a barrier: every block of one call has finished
    when it returns, so the next call's blocks may read any row the first
    wrote (optimize.energy_gradient scales every row before its axis-0
    adjoint reads neighbour rows).
    """
    blocks = list(blocks)
    out = [None] * len(blocks)
    todo = enumerate(blocks)
    lock = threading.Lock()
    failed = False

    def work():
        nonlocal failed
        _arena.planes = []
        try:
            while not failed:
                with lock:
                    k, blk = next(todo, (None, None))
                if blk is None:
                    return
                try:
                    out[k] = fn(blk)
                except BaseException:
                    failed = True
                    raise
        finally:
            del _arena.planes

    # the helper runs in a copy of the caller's context, so an np.errstate
    # around the call covers every block
    helper = None
    if _WORKERS > 1 and len(blocks) > 1:
        helper = _start_helper().submit(contextvars.copy_context().run, work)
    try:
        work()
    except BaseException:
        if helper is not None:
            helper.exception()  # wait, so no block of this call outlives it
        raise
    if helper is not None:
        helper.result()
    return out


def _planes(k: int, shape: tuple) -> list:
    """k float64 planes of `shape` for the running block of a _map_blocks call.

    They come from the calling thread's arena, so their contents are
    garbage, and a later call (in this block or the thread's next one)
    hands out the same memory again: a block asks once, for all the
    planes it needs at the same time.
    """
    bufs, size = _arena.planes, math.prod(shape)
    bufs.extend(np.empty(size) for _ in range(k - len(bufs)))
    for i in range(k):
        if bufs[i].size < size:
            bufs[i] = np.empty(size)
    return [b[:size].reshape(shape) for b in bufs[:k]]


def _start_helper():
    global _helper
    if _helper is None:
        from concurrent.futures import ThreadPoolExecutor

        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hlip-blocks")
    return _helper


def _pair_columns(p, q, m_extra: int):
    """Columns of two point arrays with 2n + m_extra coordinates, n and the pair shape."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = p.shape[-1]
    n = m // 2
    if 2 * n + m_extra != m or n < 2:
        raise ValueError(f"bad point coordinate count {m}")
    if q.shape[-1] != m:
        raise ValueError(f"dimension mismatch: {m} vs {q.shape[-1]} coordinates")
    shape = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    return [p[..., k] for k in range(m)], [q[..., k] for k in range(m)], n, shape


def _twist_t(P, Q, xs, ys, t, s, u, v):
    """(q_t - p_t) - 2 (sum p_y q_x - sum p_x q_y), returned in plane u."""
    np.multiply(P[ys[0]], Q[xs[0]], out=s)
    for x, y in zip(xs[1:], ys[1:]):
        s += np.multiply(P[y], Q[x], out=v)
    np.multiply(P[xs[0]], Q[ys[0]], out=u)
    for x, y in zip(xs[1:], ys[1:]):
        u += np.multiply(P[x], Q[y], out=v)
    s -= u
    s *= 2.0
    np.subtract(Q[t], P[t], out=u)
    u -= s
    return u


def _square_sum(P, Q, ks, out, tmp):
    """sum over ks of (q_k - p_k)^2, returned in plane out."""
    np.subtract(Q[ks[0]], P[ks[0]], out=out)
    out *= out
    for k in ks[1:]:
        np.subtract(Q[k], P[k], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _box_of(z2, t):
    """max(sqrt(z2), sqrt(|t|)) in plane t, taken as sqrt(max(z2, |t|)):
    sqrt is correctly rounded and monotone, so that is the same bits.  z2
    is left as it is; a numpy scalar for a single pair."""
    np.abs(t, out=t)
    np.sqrt(np.maximum(z2, t, out=t), out=t)
    return t if t.ndim else t[()]


def dinf(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Box norm of p^-1 * q, without forming the product."""
    P, Q, n, shape = _pair_columns(p, q, 1)
    s, u, v = (np.empty(shape) for _ in range(3))
    t = _twist_t(P, Q, range(n), range(n, 2 * n), 2 * n, s, u, v)
    return _box_of(_square_sum(P, Q, range(2 * n), s, v), t)


def w_dinf(a: np.ndarray, b: np.ndarray, planes=None) -> np.ndarray:
    """Box norm of a^-1 * b inside W; x_1 = 0, so the twist skips y_1."""
    P, Q, n, shape = _pair_columns(a, b, 0)
    s, u, v = planes or [np.empty(shape) for _ in range(3)]
    t = _twist_t(P, Q, range(n - 1), range(n, 2 * n - 1), 2 * n - 1, s, u, v)
    return _box_of(_square_sum(P, Q, range(2 * n - 1), s, v), t)


def pi_rel_norm(p: np.ndarray, q: np.ndarray, both: bool = False, planes=None):
    """||proj(p^-1 * q)||_inf without materializing the product.

    With both=True, the pair (pi_rel_norm(p, q), pi_rel_norm(q, p)) from
    one pass, bit for bit.
    """
    P, Q, n, shape = _pair_columns(p, q, 1)
    a, b, c, d = planes or [np.empty(shape) for _ in range(4)]
    z2 = _square_sum(P, Q, range(1, 2 * n), a, b)
    tau = _twist_t(P, Q, range(n), range(n, 2 * n), 2 * n, b, d, c)
    # tau = t_rel - (2 dx_1) dy_1 shears the t coordinate onto W
    np.subtract(Q[0], P[0], out=b)
    b *= 2.0
    b *= np.subtract(Q[n], P[n], out=c)
    if not both:
        tau -= b
        return _box_of(z2, tau)
    back = np.add(tau, b, out=c)  # -(tau of q^-1 * p)
    tau -= b
    return _box_of(z2, tau), _box_of(z2, back)


# ---------------------------------------------------------------------------
# box search
#
# Each distance is at least the spatial coordinate differences it holds in
# its z part: dinf(p, q) >= |q_k - p_k| for every k < 2n, and so is the
# cylinder norm max(pi_rel_norm(p, q), |q_0 - p_0|), since pi_rel_norm
# holds columns 1..2n - 1; w_dinf(a, b) >= |b_k - a_k| for every k < 2n - 1.
# So every point within r of some row of a set lies inside the rows'
# bounding box on those columns, padded by r, and a search within a known
# cutoff takes only the points in that box.  A pad with a relative margin
# of 1e-9 absorbs the rounding of the coordinates and of the kernels for
# coordinates up to about 10^6 pads.


def _groups(p: np.ndarray, cols, width: float) -> list:
    """The row indices of p grouped by the cell of width `width` each row
    falls in on the columns cols: a partition of range(len(p)), one
    ascending index array per occupied cell, in the order of the cells."""
    keys = np.floor(p[:, cols] / width).astype(np.int64)
    cell = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(cell, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(cell[order])) + 1) if order.size else []


def _in_box(points: np.ndarray, cols, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices, ascending, of a superset of the points strictly inside
    the box lo[k] < p_k < hi[k] for k in cols (lo and hi are indexed by
    column).  The points are sorted on column cols[0], so that column
    allows one slice, and the other columns are tested on that slice alone;
    Fortran-ordered points make each of those tests one contiguous pass."""
    a, b = np.searchsorted(points[:, cols[0]], [lo[cols[0]], hi[cols[0]]])
    b = max(a, b)  # a box with lo above hi is empty
    keep = np.ones(b - a, dtype=bool)
    for k in cols[1:]:
        keep &= points[a:b, k] > lo[k]
        keep &= points[a:b, k] < hi[k]
    return a + np.flatnonzero(keep)
