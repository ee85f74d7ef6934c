"""Group arithmetic, norms, projections, and the dimensional constants."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hlip import core
from hlip.graph import ConeViolationError

RNG = np.random.default_rng(20260814)


def random_points(n, size, scale=5.0, rng=RNG):
    p = rng.uniform(-scale, scale, size=(size, 2 * n + 1))
    p[:, -1] = rng.uniform(-(scale**2), scale**2, size=size)
    return p


def w_mul(a, b):
    """Product inside the subgroup W (x_1 = 0 stays zero), the reference
    formula for the W kernels."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[-1]
    n = m // 2
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., : 2 * n - 1] = a[..., : 2 * n - 1] + b[..., : 2 * n - 1]
    # x_1 = 0 on both factors, so only j >= 2 contributes to the twist
    ax, ay = a[..., : n - 1], a[..., n : 2 * n - 1]
    bx, by = b[..., : n - 1], b[..., n : 2 * n - 1]
    out[..., 2 * n - 1] = (
        a[..., 2 * n - 1]
        + b[..., 2 * n - 1]
        + 2.0 * (np.sum(ay * bx, axis=-1) - np.sum(ax * by, axis=-1))
    )
    return out


# --- hand-checked examples -------------------------------------------------


E1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # e_1 of H^2


def test_mul_hand_example():
    p = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    r = core.mul(p, q)
    assert np.allclose(r[:2], [1.0, 0.0]) and np.allclose(r[2:4], [1.0, 0.0])
    assert r[4] == -2.0
    assert core.box(r) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_inverse_and_identity():
    p = np.array([0.3, -1.2, 2.0, 0.5, -0.7])
    e = np.zeros(5)
    pi = core.inv(p)
    assert np.allclose(core.mul(p, pi), e, atol=1e-15)
    assert np.allclose(core.mul(pi, p), e, atol=1e-15)
    assert np.allclose(core.mul(p, e), p)


def test_projection_hand_example():
    p = np.array([1.0, 0.0, 1.0, 0.0, 3.0])
    w, h = core.proj(p)
    assert h == 1.0
    assert np.allclose(w, [0.0, 1.0, 0.0, 1.0])  # t - 2 x1 y1 = 1
    # p = proj(p) * (h e_1)
    back = core.mul(core.embed_w(w), h * E1)
    assert np.allclose(back, p, atol=1e-15)


def test_cylinder_norm_hand_example():
    p = np.array([1.0, 0.0, 0.0, 2.0, 4.0])
    assert core.cylnorm(p) == pytest.approx(2.0, abs=1e-15)
    # the open cylinder C_r(0) = {cylnorm(0^-1 p) < r}
    rel = core.mul(core.inv(np.zeros(5)), p)
    assert core.cylnorm(rel) < 2.0001
    assert not core.cylnorm(rel) < 2.0


def test_exp_x1_hand_example():
    # the flow of X_1 for time s is right translation by s e_1
    w = np.array([0.0, 3.0, 0.0, 0.0])
    p = core.mul(core.embed_w(w), E1)
    assert np.allclose(p, [1.0, 0.0, 3.0, 0.0, 6.0])


def test_constants_closed_forms():
    kappa, delta, lo, hi = core.constants(2)
    assert kappa == pytest.approx(8.0 * math.pi / 3.0, abs=1e-12)
    assert delta == pytest.approx(5.0 / math.pi, abs=1e-12)
    assert lo == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert hi == pytest.approx(8.0 * math.pi**2 / 15.0, abs=1e-12)
    k3 = core.constants(3)[0]
    assert k3 == pytest.approx(2.0 * math.pi**2.5 / math.gamma(3.5), abs=1e-12)


def test_constants_monte_carlo_disk_volume():
    # L^4 of D_1 in W for n=2: ball^3 x (-1,1), estimated on 1e6 points
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(1_000_000, 4))
    inside = core.box(pts) < 1.0
    est = 16.0 * np.mean(inside)
    kappa = core.constants(2)[0]
    assert abs(est - kappa) / kappa < 0.005


def test_dimension_validation():
    with pytest.raises(ValueError):
        core.constants(1)
    with pytest.raises(ValueError):
        core.mul(np.zeros(3), np.zeros(3))  # n = 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        core.mul(np.zeros(5), np.zeros(7))


def test_dilate_errors():
    with pytest.raises(ValueError):
        core.dilate_arr(0.0, np.zeros(5))


# --- algebraic properties ---------------------------------------------------


def test_associativity_bulk():
    n = 2
    p, q, r = (random_points(n, 10_000) for _ in range(3))
    lhs = core.mul(core.mul(p, q), r)
    rhs = core.mul(p, core.mul(q, r))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inverse_identity_bulk():
    for n in (2, 3):
        p = random_points(n, 5_000)
        e = core.mul(core.inv(p), p)
        assert np.max(np.abs(e)) < 1e-12


def test_left_invariance_of_dinf():
    n = 2
    g, p, q = (random_points(n, 5_000) for _ in range(3))
    d0 = core.dinf(p, q)
    d1 = core.dinf(core.mul(g, p), core.mul(g, q))
    assert np.max(np.abs(d0 - d1)) < 1e-10


def test_box_norm_homogeneity_and_symmetry():
    p = random_points(2, 5_000)
    for lam in (0.25, 2.0, 7.5):
        assert np.max(np.abs(core.box(core.dilate_arr(lam, p)) - lam * core.box(p))) < 1e-11
    assert np.max(np.abs(core.box(core.inv(p)) - core.box(p))) == 0.0


def test_box_norm_triangle_inequality():
    p, q = random_points(2, 20_000), random_points(2, 20_000)
    s = core.box(core.mul(p, q))
    assert np.all(s <= core.box(p) + core.box(q) + 1e-12)


def test_dilations_are_automorphisms():
    p, q = random_points(2, 5_000), random_points(2, 5_000)
    for lam in (0.5, 3.0):
        lhs = core.dilate_arr(lam, core.mul(p, q))
        rhs = core.mul(core.dilate_arr(lam, p), core.dilate_arr(lam, q))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_projection_splits_every_point():
    p = random_points(2, 5_000)
    w, h = core.proj(p)
    back = core.mul(core.embed_w(w), _height_vector(h, 2))
    assert np.max(np.abs(back - p)) < 1e-12


def _height_vector(h, n):
    v = np.zeros(np.shape(h) + (2 * n + 1,))
    v[..., 0] = h
    return v


def test_projection_of_w_is_identity():
    w = RNG.uniform(-3, 3, size=(1000, 4))
    w2, h = core.proj(core.embed_w(w))
    assert np.max(np.abs(w2 - w)) == 0.0
    assert np.max(np.abs(h)) == 0.0


def test_w_subgroup_closure():
    a = RNG.uniform(-3, 3, size=(2000, 4))
    b = RNG.uniform(-3, 3, size=(2000, 4))
    direct = w_mul(a, b)
    via_h = core.mul(core.embed_w(a), core.embed_w(b))
    assert np.max(np.abs(core.embed_w(direct) - via_h)) < 1e-12
    assert np.max(np.abs(core.w_dinf(a, b) - core.dinf(core.embed_w(a), core.embed_w(b)))) < 1e-12


def test_cylinder_ball_sandwich():
    # B_{r/2} subset C_r subset B_{2r} through the quasi-norm comparison
    p = random_points(2, 50_000, scale=2.0)
    bn = core.box(p)
    cn = core.cylnorm(p)
    assert np.all(cn <= 2.0 * bn + 1e-12)
    assert np.all(bn <= 2.0 * cn + 1e-12)
    for r in (0.5, 1.0, 2.0):
        assert np.all(cn[bn < r / 2] < r)
        assert np.all(bn[cn < r] < 2 * r)


def test_pi_rel_norm_matches_composed_ops():
    p, q = random_points(2, 5_000), random_points(2, 5_000)
    w, _ = core.proj(core.mul(core.inv(p), q))
    ref = core.box(w)
    assert np.max(np.abs(core.pi_rel_norm(p, q) - ref)) < 1e-12


# --- hypothesis property tests ----------------------------------------------

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def hpoints(draw, n=2):
    c = draw(st.lists(coord, min_size=2 * n + 1, max_size=2 * n + 1))
    return np.array(c)


@given(hpoints(), hpoints(), hpoints())
@settings(max_examples=200, deadline=None)
def test_associativity_property(p, q, r):
    lhs = core.mul(core.mul(p, q), r)
    rhs = core.mul(p, core.mul(q, r))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(hpoints(), hpoints())
@settings(max_examples=200, deadline=None)
def test_triangle_property(p, q):
    assert core.box(core.mul(p, q)) <= core.box(p) + core.box(q) + 1e-10


@given(hpoints(), st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_homogeneity_property(p, lam):
    assert abs(core.box(core.dilate_arr(lam, p)) - lam * core.box(p)) < 1e-9 * max(1.0, lam)


# --- fused kernels against the broadcast formulas ---------------------------
# The references are the broadcast forms the fused column kernels replaced;
# the kernels must reproduce them bit for bit, not just to a tolerance.


def _ref_pi_rel_norm(p, q):
    return core.box(core.proj(core.mul(core.inv(p), q))[0])


def _ref_dinf(p, q):
    return core.box(core.mul(core.inv(p), q))


def _ref_w_dinf(a, b):
    return core.box(w_mul(core.inv(a), b))


@st.composite
def point_pairs(draw, extra):
    """Two point arrays with 2n + extra coordinates in one of the kernel call shapes."""
    n = draw(st.sampled_from((2, 3)))
    m = 2 * n + extra
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shapes = draw(st.sampled_from([((a, 1, m), (1, b, m)), ((m,), (b, m)), ((b, m), (b, m))]))
    elems = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False)
    p = draw(hnp.arrays(np.float64, shapes[0], elements=elems))
    q = draw(hnp.arrays(np.float64, shapes[1], elements=elems))
    return p, q


@given(point_pairs(1))
@settings(max_examples=300, deadline=None)
def test_fused_pi_rel_norm_bitwise(pq):
    p, q = pq
    np.testing.assert_array_equal(core.pi_rel_norm(p, q), _ref_pi_rel_norm(p, q))
    np.testing.assert_array_equal(core.pi_rel_norm(q, p), _ref_pi_rel_norm(q, p))


@given(point_pairs(1))
@settings(max_examples=300, deadline=None)
def test_pi_rel_norm_both_orders_bitwise(pq):
    # one pass gives both orders: reversing negates the twist exactly
    p, q = pq
    fwd, back = core.pi_rel_norm(p, q, both=True)
    np.testing.assert_array_equal(fwd, _ref_pi_rel_norm(p, q))
    np.testing.assert_array_equal(back, _ref_pi_rel_norm(q, p))


def test_pi_rel_norm_both_orders_equal_points_and_scalars():
    p = random_points(2, 5)
    # p == q: every difference and tau are +-0, so both orders read +0
    fwd, back = core.pi_rel_norm(p, p, both=True)
    assert np.all(fwd == 0.0) and not np.any(np.signbit(fwd))
    assert np.all(back == 0.0) and not np.any(np.signbit(back))
    pair = core.pi_rel_norm(p[0], p[1], both=True)
    assert isinstance(pair, tuple) and len(pair) == 2
    assert all(isinstance(d, np.float64) and np.ndim(d) == 0 for d in pair)
    assert pair == (core.pi_rel_norm(p[0], p[1]), core.pi_rel_norm(p[1], p[0]))


@given(point_pairs(1))
@settings(max_examples=300, deadline=None)
def test_fused_dinf_bitwise(pq):
    p, q = pq
    np.testing.assert_array_equal(core.dinf(p, q), _ref_dinf(p, q))
    np.testing.assert_array_equal(core.dinf(q, p), _ref_dinf(q, p))


@given(point_pairs(0))
@settings(max_examples=300, deadline=None)
def test_fused_w_dinf_bitwise(ab):
    a, b = ab
    np.testing.assert_array_equal(core.w_dinf(a, b), _ref_w_dinf(a, b))
    np.testing.assert_array_equal(core.w_dinf(b, a), _ref_w_dinf(b, a))


def test_fused_kernels_keep_shapes_and_scalars():
    p, q = random_points(2, 4), random_points(2, 4)
    for kernel in (core.pi_rel_norm, core.dinf):
        assert kernel(p[:, None, :], q[None, :, :]).shape == (4, 4)
        single = kernel(p[0], q[0])
        assert isinstance(single, np.float64) and np.ndim(single) == 0
    assert isinstance(core.w_dinf(p[0, 1:], q[0, 1:]), np.float64)
    with pytest.raises(ValueError):
        core.dinf(p, random_points(3, 4))
    with pytest.raises(ValueError):
        core.w_dinf(p, q)


def test_row_blocks_cover_rows_once_within_budget():
    budget = core._BLOCK_BYTES
    for rows, cols in ((0, 5), (1, 1), (1000, 3), (5000, 2160), (333, budget // 8)):
        blocks = list(core._row_blocks(rows, cols))
        covered = np.concatenate([np.arange(rows)[b] for b in blocks] + [np.empty(0, int)])
        np.testing.assert_array_equal(covered, np.arange(rows))
        assert all(b.stop - b.start >= 1 for b in blocks)
        assert all((b.stop - b.start) * cols * 8 <= budget for b in blocks)


def test_triangle_blocks_cover_rows_once_within_the_first_plane():
    # block [a, b) of an m x m upper triangle spans m - a columns: it takes
    # as many rows as fit the first block's plane at that width
    for m in (0, 1, 7, 1000, 5000, core._BLOCK_BYTES // 8 + 3):
        blocks, rows = list(core._triangle_blocks(m)), np.arange(m)
        covered = np.concatenate([rows[b] for b in blocks] + [np.empty(0, int)])
        np.testing.assert_array_equal(covered, rows)
        if not m:
            continue
        first = (blocks[0].stop - blocks[0].start) * m
        assert first * 8 <= max(core._BLOCK_BYTES, 8 * m)
        for b in blocks:
            rows = b.stop - b.start
            assert rows >= 1 and rows * (m - b.start) <= first
            # one more row would not fit, unless the triangle ended
            assert b.stop == m or (rows + 1) * (m - b.start) > first
    assert len(list(core._triangle_blocks(5000))) < len(list(core._row_blocks(5000, 5000)))


def test_row_blocks_yield_single_rows_over_budget():
    cols = core._BLOCK_BYTES // 8 + 1
    blocks = list(core._row_blocks(5, cols))
    assert [(b.start, b.stop) for b in blocks] == [(k, k + 1) for k in range(5)]


def test_map_blocks_runs_each_block_once_in_order(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 3)  # 3 rows per block at 1 column
    rows = 3000
    expected = list(core._row_blocks(rows, 1))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    threads = set()
    try:
        for _ in range(20):
            runs = [0] * len(expected)

            def fn(blk):
                runs[blk.start // 3] += 1
                threads.add(threading.get_ident())
                time.sleep(0)  # let the other thread take a block
                return blk

            assert core._map_blocks(fn, core._row_blocks(rows, 1)) == expected
            assert runs == [1] * len(expected)
    finally:
        sys.setswitchinterval(switch)
    assert len(threads) == 2


def test_map_blocks_run_under_the_callers_errstate(monkeypatch):
    # an np.errstate around a call covers the helper's blocks too, so a
    # caller that checks for overflow afterwards gets no warning from them
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8)  # one row per block at 1 column
    seen = set()

    def fn(blk):
        seen.add((threading.get_ident(), np.geterr()["over"]))
        time.sleep(0.01)  # let the other thread take a block

    with np.errstate(over="ignore"):
        core._map_blocks(fn, core._row_blocks(6, 1))
    assert {mode for _, mode in seen} == {"ignore"}
    assert len({thread for thread, _ in seen}) == 2


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_map_blocks_reraises_after_the_helper_stops(monkeypatch, raiser):
    # one thread raises in its block while the other is inside a slow one:
    # the call re-raises that very exception only after the other block
    # ends, takes no further block, and the next call still works
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8)  # one row per block at 1 column
    caller = threading.current_thread()
    other_started = threading.Event()
    error = ConeViolationError(f"raised in a {raiser} block")
    ran, finished = [], []

    def fn(blk):
        ran.append(blk.start)
        if (threading.current_thread() is caller) == (raiser == "caller"):
            assert other_started.wait(timeout=30)
            raise error
        other_started.set()
        time.sleep(0.1)
        finished.append(blk.start)
        return blk.start

    with pytest.raises(ConeViolationError) as info:
        core._map_blocks(fn, core._row_blocks(6, 1))
    assert info.value is error
    assert len(finished) == 1 and len(ran) == 2
    assert core._map_blocks(lambda blk: blk.start, core._row_blocks(6, 1)) == list(range(6))


def _ref_box(p):
    return np.maximum(np.sqrt(np.sum(p[..., :-1] ** 2, axis=-1)), np.sqrt(np.abs(p[..., -1])))


@given(point_pairs(1), point_pairs(0))
@settings(max_examples=200, deadline=None)
def test_box_bitwise(pq, ab):
    # H-points and W points, n in {2, 3}, in the kernel call shapes
    for p in (*pq, *ab):
        np.testing.assert_array_equal(core.box(p), _ref_box(p))


# --- box search ---------------------------------------------------------------


@given(
    st.sampled_from((2, 3)),
    st.integers(0, 60),
    st.sampled_from((1e-3, 0.1, 0.3, 0.5, 2.0)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_box_search_matches_brute_force(n, size, width, ties, seed):
    # _in_box against a test of every point, and _groups against every
    # point's cell; coordinates on a quarter grid give ties on the sorted
    # column and box faces through points, width 1e-3 gives a cell per point
    rng = np.random.default_rng(seed)
    pts = random_points(n, size, scale=1.0, rng=rng)
    if ties:
        pts = np.round(pts * 4.0) / 4.0
    for cols in (range(2 * n), range(2 * n - 1), [1, 0, *range(2, 2 * n)]):
        cols = list(cols)
        srt = np.asfortranarray(pts[np.argsort(pts[:, cols[0]], kind="stable")])
        corners = random_points(n, 2, scale=1.5, rng=rng)
        faces = srt[rng.integers(0, size, 2)] if size else corners
        # boxes inside, across and outside the points' range, empty ones
        # (lo above hi), and boxes whose faces pass through points
        for lo, hi in (
            (corners.min(axis=0), corners.max(axis=0)),
            (corners.max(axis=0), corners.min(axis=0)),
            (corners.min(axis=0) + 3.0, corners.max(axis=0) + 3.0),
            (faces.min(axis=0), faces.max(axis=0)),
            (np.full(2 * n + 1, -np.inf), np.full(2 * n + 1, np.inf)),
        ):
            got = core._in_box(srt, cols, lo, hi)
            inside = np.all((srt[:, cols] > lo[cols]) & (srt[:, cols] < hi[cols]), axis=1)
            closed = np.all((srt[:, cols] >= lo[cols]) & (srt[:, cols] <= hi[cols]), axis=1)
            assert np.all(np.diff(got) > 0)
            assert set(np.flatnonzero(inside)) <= set(got.tolist())
            assert np.all(closed[got])
        keys = np.floor(pts[:, cols] / width)
        groups = core._groups(pts, cols, width)
        # a partition of the rows, each group ascending and of one cell,
        # the cells distinct and in order
        rows = np.concatenate([np.empty(0, dtype=np.int64), *groups])
        np.testing.assert_array_equal(np.sort(rows), np.arange(size))
        firsts = [tuple(keys[g[0]]) for g in groups]
        assert firsts == sorted(set(firsts))
        for g in groups:
            assert np.all(np.diff(g) > 0)
            assert np.all(keys[g] == keys[g[0]])
