"""Grids, intrinsic gradients, graph distance, and Lipschitz extension."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlip import approx, core, graph

KAPPA = core.constants(2)[0]


def linear_fn(eps):
    return lambda w: eps * w[:, 1]


@pytest.fixture(scope="module")
def small_spec():
    return graph.GridSpec.centered(2, 1.0, 0.25)


# --- grid plumbing -----------------------------------------------------------


def test_centered_grid_tiles_interval(small_spec):
    # cells of width h tile [-1, 1] exactly on every axis
    assert small_spec.counts == (8, 8, 8, 8)
    t = small_spec.axis_values(3)
    assert t[0] == pytest.approx(-0.875) and t[-1] == pytest.approx(0.875)
    assert small_spec.cell_volume == pytest.approx(0.25**4)


def test_grids_share_cell_centers():
    a = graph.GridSpec.centered(2, 1.0, 0.25)
    b = graph.GridSpec.centered(2, 1.5, 0.25)
    av, bv = a.axis_values(0), b.axis_values(0)
    assert set(np.round(av, 12)) <= set(np.round(bv, 12))


def test_locate_roundtrip(small_spec):
    nodes = small_spec.nodes()
    rng = np.random.default_rng(0)
    jitter = rng.uniform(-0.124, 0.124, size=nodes.shape)
    flat, inside = small_spec.locate(nodes + jitter)
    assert np.all(inside)
    assert np.array_equal(flat, np.arange(small_spec.size))
    _, inside2 = small_spec.locate(np.array([[5.0, 0.0, 0.0, 0.0]]))
    assert not inside2[0]


def test_boundary_mask(small_spec):
    m = small_spec.boundary_mask()
    assert m.shape == small_spec.counts
    assert m[0, 3, 3, 3] and m[3, 3, 3, 7] and not m[3, 3, 3, 3]


def test_spec_validation():
    with pytest.raises(ValueError):
        graph.GridSpec(1, (0.0, 0.0), 0.1, (4, 4))
    with pytest.raises(ValueError):
        graph.GridSpec(2, (0.0,) * 4, -0.1, (4,) * 4)
    with pytest.raises(ValueError):
        graph.GridSpec(2, (0.0,) * 3, 0.1, (4,) * 4)


NODE_SPECS = [graph.GridSpec.centered(2, 0.6, 0.2), graph.GridSpec.centered(3, 0.5, 0.25)]


@pytest.mark.parametrize("spec", NODE_SPECS, ids=["n2", "n3"])
@pytest.mark.parametrize("cached", [False, True])  # a small budget, or the default
def test_node_block_matches_grid_nodes_bitwise(monkeypatch, spec, cached):
    nodes = graph.grid_nodes(spec)
    size = spec.size
    cases = [slice(0, size), slice(0, 1), slice(size - 1, size), slice(7, 7), slice(3, size - 5)]
    # the blocks from_callable and the graph samples ask for, and slices
    # that straddle their edges; under the default budget these grids'
    # node arrays fit one block and come from grid_nodes' cache
    assert 8 * 2 * spec.n * size <= core._BLOCK_BYTES
    budget = 8 * 2 * spec.n * 37
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", budget)
        blocks = list(core._row_blocks(size, 2 * spec.n))
    assert len(blocks) > 2
    if not cached:
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    cases += blocks
    cases += [slice(b.stop - 3, min(b.stop + 3, size)) for b in blocks[:-1]]
    hits = graph.grid_nodes.cache_info().hits
    for rows in cases:
        got = graph._node_block(spec, rows)
        want = nodes[rows]
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert (graph.grid_nodes.cache_info().hits > hits) == cached


@pytest.mark.parametrize("spec", NODE_SPECS, ids=["n2", "n3"])
@pytest.mark.parametrize("rows", [1, 37, None])  # node rows per block; None: the default budget
def test_from_callable_in_blocks_matches_the_whole_grid(monkeypatch, spec, rows):
    def fn(w):
        return np.sin(3.0 * w[:, 0]) * w[:, -1] + w[:, 1] ** 2 - 0.5 * w[:, spec.n - 1]

    want = fn(spec.nodes()).reshape(spec.counts)
    if rows:
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 2 * spec.n * rows)
    got = graph.GridFunction.from_callable(spec, fn).values
    assert got.tobytes() == want.tobytes()


def test_from_callable_holds_one_float_per_node():
    # the values, then per block only its nodes and fn's temporaries
    spec = graph.GridSpec.centered(2, 1.0, 0.1)
    assert spec.size == 160_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f = graph.GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 1])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert f.values.shape == spec.counts
    assert peak < 8 * spec.size + 4 * core._BLOCK_BYTES


def test_interp_exact_on_multilinear(small_spec):
    f = graph.GridFunction.from_callable(
        small_spec, lambda w: 1.0 + 2 * w[:, 0] - w[:, 1] + 0.5 * w[:, 2] * w[:, 3]
    )
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(200, 4))
    expect = 1.0 + 2 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2] * pts[:, 3]
    # multilinear interp reproduces per-axis-degree-one polynomials
    assert np.max(np.abs(f.interp(pts) - expect)) < 1e-12


def test_interp_outside_raises(small_spec):
    f = graph.GridFunction.constant(small_spec, 0.0)
    with pytest.raises(ValueError):
        f.interp(np.array([[0.0, 0.0, 0.0, 3.0]]))


def test_interp_takes_the_points_locate_puts_inside(small_spec):
    # cells tile [-1, 1) per axis with edge nodes at +-0.875; the outer half
    # of an edge cell takes the edge node's value
    f = graph.GridFunction.from_callable(small_spec, lambda w: w[:, 0] - 2.0 * w[:, 3])
    pts = np.array([[-1.0, 0.0, 0.0, 0.99], [0.95, 0.3, 0.0, -0.93]])
    assert np.all(small_spec.locate(pts)[1])
    edge = np.clip(pts, -0.875, 0.875)
    np.testing.assert_allclose(f.interp(pts), edge[:, 0] - 2.0 * edge[:, 3], rtol=0, atol=1e-12)
    for k in range(4):
        out = np.zeros((1, 4))
        out[0, k] = 1.0
        assert not small_spec.locate(out)[1][0]
        with pytest.raises(ValueError, match="outside grid domain"):
            f.interp(out)


# --- graph map ---------------------------------------------------------------


def test_graph_points_flat_is_embedding(small_spec):
    f = graph.GridFunction.constant(small_spec, 0.0)
    pts = f.graph()
    assert np.max(np.abs(pts - core.embed_w(small_spec.nodes()))) == 0.0


def test_graph_points_projects_back(small_spec):
    f = graph.GridFunction.from_callable(small_spec, lambda w: 0.3 * w[:, 1] - 0.1 * w[:, 3])
    pts = f.graph()
    w, h = core.proj(pts)
    assert np.max(np.abs(w - small_spec.nodes())) < 1e-12
    assert np.max(np.abs(h - f.flat)) == 0.0


def test_graph_points_formula():
    spec = graph.GridSpec.centered(2, 1.0, 0.25)
    f = graph.GridFunction.constant(spec, 0.5)
    w = np.array([0.125, 0.375, -0.125, 0.125])
    p = core.graph_points(w, f.interp(w[None, :])[0])
    # t coordinate picks up the shear 2 y_1 phi
    assert p[4] == pytest.approx(0.125 + 2 * 0.375 * 0.5)
    assert p[0] == pytest.approx(0.5)


# --- intrinsic gradient ------------------------------------------------------


def test_gradient_constant_is_zero(small_spec):
    g = graph.intrinsic_gradient(graph.GridFunction.constant(small_spec, 3.7))
    # one-sided edge stencils leave ~1e-15 roundoff on constants
    assert np.max(np.abs(g.components)) < 1e-13


def test_gradient_of_y1(small_spec):
    f = graph.GridFunction.from_callable(small_spec, linear_fn(1.0))
    g = graph.intrinsic_gradient(f)
    assert np.max(np.abs(g.components[0])) == 0.0
    assert np.max(np.abs(g.components[1] - 1.0)) < 1e-13
    assert np.max(np.abs(g.components[2])) == 0.0
    assert np.max(np.abs(g.norm() - 1.0)) < 1e-13


def test_gradient_of_t_hand_value():
    spec = graph.GridSpec(2, (0.0, -1.0, 0.0, 0.0), 0.5, (5, 5, 7, 9))
    f = graph.GridFunction.from_callable(spec, lambda w: w[:, 3])
    g = graph.intrinsic_gradient(f)
    nodes = spec.nodes()
    k = np.flatnonzero(np.all(np.abs(nodes - [1.0, 0.0, 2.0, 3.0]) < 1e-12, axis=1))[0]
    assert np.allclose(g.components.reshape(3, -1)[:, k], [4.0, -12.0, -2.0], atol=1e-12)


def test_gradient_exact_on_low_degree_polys(small_spec):
    w = small_spec.nodes()
    cases = [
        (lambda v: v[:, 3], lambda v: (2 * v[:, 2], -4 * v[:, 3], -2 * v[:, 0])),
        (lambda v: v[:, 0] * v[:, 2], lambda v: (v[:, 2], 0 * v[:, 0], v[:, 0])),
        (lambda v: v[:, 1], lambda v: (0 * v[:, 0], 1 + 0 * v[:, 0], 0 * v[:, 0])),
    ]
    for fn, grad in cases:
        g = graph.intrinsic_gradient(graph.GridFunction.from_callable(small_spec, fn))
        exact = np.stack(grad(w), axis=0).reshape(3, *small_spec.counts)
        assert np.max(np.abs(g.components - exact)) < 1e-12


def _transcendental(w):
    return 0.3 * np.sin(w[:, 1]) * np.cos(0.5 * w[:, 3]) + 0.1 * w[:, 0] * w[:, 2]


def _transcendental_grad(w, phi):
    x2, y1, y2, t = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    pt = -0.15 * np.sin(y1) * np.sin(0.5 * t)
    return np.stack(
        [
            0.1 * y2 + 2 * y2 * pt,
            0.3 * np.cos(y1) * np.cos(0.5 * t) - 4 * phi * pt,
            0.1 * x2 - 2 * x2 * pt,
        ],
        axis=0,
    )


def test_gradient_second_order_convergence():
    errs = []
    for h in (0.1, 0.05):
        spec = graph.GridSpec.centered(2, 1.0, h)
        f = graph.GridFunction.from_callable(spec, _transcendental)
        g = graph.intrinsic_gradient(f)
        exact = _transcendental_grad(spec.nodes(), f.flat).reshape(3, *spec.counts)
        errs.append(np.max(np.abs(g.components - exact)))
    assert errs[0] / errs[1] >= 3.5


def test_gradient_n3_shape_and_formula():
    spec = graph.GridSpec.centered(3, 0.5, 0.25)
    f = graph.GridFunction.from_callable(spec, lambda w: w[:, 5])  # phi = t
    g = graph.intrinsic_gradient(f)
    assert g.components.shape == (5,) + spec.counts
    w = spec.nodes()
    # phi = t: X_i = 2 y_i, B = -4t, Y_i = -2 x_i
    exact = np.stack(
        [2 * w[:, 3], 2 * w[:, 4], -4 * w[:, 5], -2 * w[:, 0], -2 * w[:, 1]], axis=0
    ).reshape(5, *spec.counts)
    assert np.max(np.abs(g.components - exact)) < 1e-12


def intrinsic_gradient_reference(f):
    """intrinsic_gradient as np.gradient partials, kept as the reference."""
    n = f.spec.n
    parts = [np.gradient(f.values, f.spec.h, axis=ax, edge_order=2) for ax in range(2 * n)]
    dt = parts[2 * n - 1]
    comps = np.empty((2 * n - 1,) + f.spec.counts)
    for i in range(2, n + 1):
        comps[i - 2] = parts[i - 2] + 2.0 * f.spec.coordinate_field(n + i - 2) * dt
    comps[n - 1] = parts[n - 1] - 4.0 * f.values * dt
    for i in range(2, n + 1):
        comps[n + i - 2] = parts[n + i - 2] - 2.0 * f.spec.coordinate_field(i - 2) * dt
    return comps, dt


@st.composite
def grid_functions(draw):
    """Random values on small grids, n in {2, 3}, unequal counts down to 3."""
    n = draw(st.sampled_from((2, 3)))
    top = 7 if n == 2 else 4
    counts = tuple(draw(st.lists(st.integers(3, top), min_size=2 * n, max_size=2 * n)))
    h = draw(st.sampled_from((0.1, 0.25, 0.3, 1.0 / 7.0)))
    origin = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 50.0)))
    return graph.GridFunction(graph.GridSpec(n, origin, h, counts), scale * rng.normal(size=counts))


@settings(max_examples=80, deadline=None)
@given(grid_functions())
def test_intrinsic_gradient_bitwise_matches_np_gradient(f):
    comps, dt = intrinsic_gradient_reference(f)
    g = graph.intrinsic_gradient(f)
    np.testing.assert_array_equal(g.components, comps)
    np.testing.assert_array_equal(g.dt, dt)
    np.testing.assert_array_equal(g.norm_sq(), np.sum(comps**2, axis=0))


def test_intrinsic_gradient_smallest_axes_bitwise():
    # length 3 is the shortest axis edge_order=2 accepts; every node is an end layer or the middle
    for spec in (graph.GridSpec(2, (0.0,) * 4, 0.2, (3, 4, 3, 5)),
                 graph.GridSpec(3, (0.1,) * 6, 0.5, (3,) * 6)):
        vals = np.random.default_rng(spec.n).normal(size=spec.counts)
        f = graph.GridFunction(spec, vals)
        comps, dt = intrinsic_gradient_reference(f)
        g = graph.intrinsic_gradient(f)
        np.testing.assert_array_equal(g.components, comps)
        np.testing.assert_array_equal(g.dt, dt)


@settings(max_examples=60, deadline=None)
@given(grid_functions(), st.integers(1, 3), st.sampled_from((1, 2)))
def test_intrinsic_gradient_in_slabs_bitwise_matches_np_gradient(f, rows, workers):
    # x_2-slabs of 1-3 rows on one thread or two; one-row slabs hold the
    # one-sided end rows and their neighbours alone
    comps, dt = intrinsic_gradient_reference(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", 8 * (f.spec.size // f.spec.counts[0]) * rows)
        mp.setattr(core, "_WORKERS", workers)
        g = graph.intrinsic_gradient(f)
    np.testing.assert_array_equal(g.components, comps)
    np.testing.assert_array_equal(g.dt, dt)


@pytest.mark.parametrize("workers,budget,want", [
    (2, 6, [8, 8]),  # the budget's 6 + 6 + 4 rounds down to two equal blocks
    (2, 5, [4, 4, 4, 4]),  # 5 + 5 + 5 + 1 keeps its count, evened out
    (2, 16, [16]),
    (1, 6, [5, 5, 6]),
])
def test_map_slabs_splits_the_rows_evenly_among_the_workers(monkeypatch, workers, budget, want):
    spec = graph.GridSpec(2, (0.0,) * 4, 0.1, (20, 6, 5, 4))
    box = (slice(2, 18), slice(1, 5), slice(0, 5), slice(0, 4))
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 4 * 5 * 4 * budget)
    monkeypatch.setattr(core, "_WORKERS", workers)
    seen = []
    graph._map_slabs(seen.append, spec, box)
    seen.sort(key=lambda slab: slab[0].start)
    assert [s[0].stop - s[0].start for s in seen] == want
    assert seen[0][0].start == 2 and seen[-1][0].stop == 18
    assert all(a[0].stop == b[0].start for a, b in zip(seen, seen[1:]))
    assert all(s[1:] == box[1:] for s in seen)


def _box_pass_cases():
    """(spec, box) pairs: n = 2 and 3, with boxes that reach the grid edge
    on some leading axes (where the one-sided end stencils run) and boxes
    inside it on every leading axis.  Every box keeps y_n and t whole, as
    intrinsic_gradient requires."""
    spec2 = graph.GridSpec(2, (-0.35, -0.3, -0.4, -0.45), 0.1, (8, 7, 9, 10))
    spec3 = graph.GridSpec(3, (-0.2,) * 6, 0.1, (5, 6, 5, 4, 6, 5))
    return [
        (spec2, (slice(0, 3), slice(4, 7), slice(0, 9), slice(0, 10))),
        (spec2, (slice(2, 6), slice(1, 5), slice(0, 9), slice(0, 10))),
        (spec3, (slice(0, 5), slice(2, 6), slice(1, 3), slice(0, 4), slice(0, 6), slice(0, 5))),
        (spec3, (slice(1, 4), slice(2, 4), slice(1, 4), slice(1, 3), slice(0, 6), slice(0, 5))),
    ]


@pytest.mark.parametrize("case", range(4), ids=["n2-edge", "n2-inner", "n3-edge", "n3-inner"])
@pytest.mark.parametrize("rows", [1, None])  # x_2 rows per slab; None: the default budget
@pytest.mark.parametrize("workers", [1, 2])
def test_intrinsic_gradient_box_planes_match_the_whole_grid_pass(monkeypatch, case, rows, workers):
    # every plane shaped like the box, the area a box view of a grid
    # plane: inside the box they hold the whole-grid pass's bits, and the
    # area outside it is left alone
    spec, box = _box_pass_cases()[case]
    f = graph.GridFunction(spec, np.random.default_rng(case).normal(size=spec.counts))
    whole = graph.intrinsic_gradient(f)
    shape = tuple(s.stop - s.start for s in box)
    comps, dt, tmp = np.empty((2 * spec.n - 1,) + shape), np.empty(shape), np.empty(shape)
    area = np.full(spec.counts, -1.0)
    if rows:
        cols = math.prod(shape[1:])
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * cols * rows)
        assert len(list(core._row_blocks(shape[0], cols))) == shape[0] // rows
    monkeypatch.setattr(core, "_WORKERS", workers)
    g = graph.intrinsic_gradient(f, box, (comps, dt, tmp, area[box]))
    assert g.components is comps and g.dt is dt
    np.testing.assert_array_equal(comps, whole.components[(slice(None),) + box])
    np.testing.assert_array_equal(dt, whole.dt[box])
    inside = np.zeros(spec.counts, dtype=bool)
    inside[box] = True
    np.testing.assert_array_equal(area[box], np.sqrt(1.0 + whole.norm_sq())[box])
    assert np.all(area[~inside] == -1.0)


@pytest.mark.parametrize("cut", [-2, -1])  # y_n, t
def test_intrinsic_gradient_rejects_a_box_that_cuts_y_n_or_t(cut):
    spec = graph.GridSpec(2, (0.0,) * 4, 0.1, (6, 6, 7, 8))
    f = graph.GridFunction(spec, np.random.default_rng(0).normal(size=spec.counts))
    box = [slice(1, 5), slice(1, 5), slice(0, 7), slice(0, 8)]
    box[cut] = slice(1, spec.counts[cut])
    shape = tuple(s.stop - s.start for s in box)
    planes = np.empty((3,) + shape), np.empty(shape), np.empty(shape), np.empty(shape)
    with pytest.raises(ValueError, match="keeps y_n and t whole"):
        graph.intrinsic_gradient(f, tuple(box), planes)


def test_intrinsic_gradient_rejects_a_box_without_out():
    # a box pass writes planes shaped like the box; without them it would
    # land in the first rows of grid-shaped planes and leave the rest unset
    spec = graph.GridSpec(2, (0.0,) * 4, 0.1, (10, 10, 10, 10))
    f = graph.GridFunction(spec, np.random.default_rng(0).normal(size=spec.counts))
    box = (slice(2, 5), slice(0, 10), slice(0, 10), slice(0, 10))
    with pytest.raises(ValueError, match="pass out"):
        graph.intrinsic_gradient(f, box)


def test_intrinsic_gradient_rejects_short_axis():
    spec = graph.GridSpec(2, (0.0,) * 4, 0.2, (4, 4, 2, 4))
    with pytest.raises(ValueError):
        graph.intrinsic_gradient(graph.GridFunction.constant(spec, 1.0))


def test_intrinsic_gradient_leaves_values_alone(small_spec):
    f = graph.GridFunction.from_callable(small_spec, _transcendental)
    before = f.values.copy()
    first = graph.intrinsic_gradient(f)
    kept = first.components.copy()
    second = graph.intrinsic_gradient(f)
    np.testing.assert_array_equal(f.values, before)
    np.testing.assert_array_equal(first.components, kept)
    assert not np.shares_memory(first.components, second.components)


# --- graph distance and phi balls -------------------------------------------


def test_graph_distance_flat_matches_w_metric(small_spec):
    f = graph.GridFunction.constant(small_spec, 0.0)
    w = small_spec.nodes()[::37]
    p = f.graph()[::37]
    d = graph._sym_dist(p[:, None, :], p[None, :, :])
    assert np.max(np.abs(d - core.w_dinf(w[:, None, :], w[None, :, :]))) == 0.0


def test_graph_distance_symmetry_and_separation(small_spec):
    f = graph.GridFunction.from_callable(small_spec, lambda w: 0.2 * w[:, 1] + 0.1 * w[:, 0])
    p = f.graph()[::29]
    d = graph._sym_dist(p[:, None, :], p[None, :, :])
    assert np.max(np.abs(d - d.T)) == 0.0
    off = d + np.eye(len(p))
    assert np.min(np.diag(d)) == 0.0 and np.min(off) > 0.0


def sym_dist_reference(p, q):
    """_sym_dist as two one-order kernel calls, kept as the reference."""
    return 0.5 * (core.pi_rel_norm(p, q) + core.pi_rel_norm(q, p))


@pytest.mark.parametrize("n", [2, 3])
def test_sym_dist_matches_two_call_reference(n):
    rng = np.random.default_rng(n)
    spec = graph.GridSpec.centered(n, 1.0, 0.5)
    f = graph.GridFunction(spec, 0.3 * rng.normal(size=spec.counts))
    p = f.graph()[rng.integers(0, spec.size, size=9)]
    for a, b in [(p[:, None, :], p[None, :5, :]), (p[0], p), (p, p[::-1]), (p[2], p[7])]:
        got = graph._sym_dist(a, b)
        np.testing.assert_array_equal(got, sym_dist_reference(a, b))
        assert type(got) is type(sym_dist_reference(a, b))


def lipschitz_estimate_reference(f, pair_budget, seed):
    """lipschitz_estimate with two one-order kernel calls, kept as the reference."""
    nodes, vals = f.spec.nodes(), f.flat
    i, j = graph._pair_stream(len(vals), pair_budget, seed)
    keep = i != j
    i, j = i[keep], j[keep]
    pi_ = core.graph_points(nodes[i], vals[i])
    pj = core.graph_points(nodes[j], vals[j])
    num = np.abs(vals[i] - vals[j])
    den = np.minimum(core.pi_rel_norm(pj, pi_), core.pi_rel_norm(pi_, pj))
    ok = den >= 1e-15
    return float(np.max(num[ok] / den[ok]))


@pytest.mark.parametrize("kind", ["linear", "random"])
def test_lipschitz_estimate_matches_two_call_reference(small_spec, kind):
    if kind == "linear":
        f = graph.GridFunction.from_callable(small_spec, lambda w: 0.1 * w[:, 1] + 0.05 * w[:, 0])
    else:
        rng = np.random.default_rng(4)
        f = graph.GridFunction(small_spec, 0.02 * rng.normal(size=small_spec.counts))
    for seed in (0, 3):
        assert graph.lipschitz_estimate(f, 5000, seed=seed) == lipschitz_estimate_reference(
            f, 5000, seed
        )


def test_graph_distance_quasi_triangle_near_one():
    spec = graph.GridSpec.centered(2, 1.0, 0.25)
    f = graph.GridFunction.from_callable(spec, linear_fn(0.05))
    rng = np.random.default_rng(2)
    p = f.graph()
    i, j, k = (rng.integers(0, len(p), size=3000) for _ in range(3))
    dij = graph._sym_dist(p[i], p[j])
    dik = graph._sym_dist(p[i], p[k])
    dkj = graph._sym_dist(p[k], p[j])
    ok = (dik + dkj) > 1e-12
    c = np.max(dij[ok] / (dik + dkj)[ok])
    # quasi-triangle constant approaches 1 in the small-Lipschitz regime
    assert c < 1.1


def test_phi_ball_small_radius_single_cell(small_spec):
    f = graph.GridFunction.from_callable(small_spec, linear_fn(0.05))
    x = small_spec.nodes()[np.ravel_multi_index((4, 4, 4, 4), small_spec.counts)]
    mask, exits = graph.phi_ball(f, x, 1e-6)
    assert np.count_nonzero(mask) == 1
    assert not exits


def test_phi_ball_flat_measure_converges():
    rels = []
    for h in (0.1, 0.05):
        spec = graph.GridSpec.centered(2, 1.25, h)
        f = graph.GridFunction.constant(spec, 0.0)
        mask, exits = graph.phi_ball(f, np.zeros(4), 1.0)
        assert not exits
        meas = np.count_nonzero(mask) * spec.cell_volume
        rels.append(abs(meas / KAPPA - 1.0))
    assert rels[1] < rels[0] and rels[1] < 0.03


def test_phi_ball_exits_flag(small_spec):
    f = graph.GridFunction.constant(small_spec, 0.0)
    _, exits = graph.phi_ball(f, np.zeros(4), 2.5)
    assert exits
    with pytest.raises(ValueError):
        graph.phi_ball(f, np.zeros(4), 0.0)


# --- lipschitz estimate ------------------------------------------------------


def test_lipschitz_estimate_constant_zero(small_spec):
    f = graph.GridFunction.constant(small_spec, 1.0)
    assert graph.lipschitz_estimate(f, 5000, seed=0) == 0.0


def test_lipschitz_estimate_linear(small_spec):
    f = graph.GridFunction.from_callable(small_spec, linear_fn(0.3))
    est = graph.lipschitz_estimate(f, 30000, seed=0)
    # |eps dy1| / ||pi(...)|| <= eps with equality along the y1 axis
    assert est <= 0.3 + 1e-12
    assert est > 0.28


def test_lipschitz_estimate_budget_monotone(small_spec):
    f = graph.GridFunction.from_callable(small_spec, lambda w: 0.1 * w[:, 1] + 0.05 * w[:, 0])
    vals = [graph.lipschitz_estimate(f, b, seed=7) for b in (1000, 5000, 20000, 50000)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_invalid_graph_detected(small_spec):
    # two nodes differing only in x2 direction cannot both... they can; fake it
    # by constructing values that jump at zero graph distance via duplicate w
    f = graph.GridFunction.from_callable(small_spec, linear_fn(0.05))
    nodes = small_spec.nodes()
    pts = core.graph_points(nodes[:10], f.flat[:10])
    assert np.all(core.pi_rel_norm(pts[:1], pts[1:]) > 0)  # sanity for this grid


# --- extension ---------------------------------------------------------------


def test_extension_constant_values():
    M = graph.extension_constant(0.07)
    assert M == pytest.approx(0.1393856915433885, abs=1e-12)
    assert M <= 2 * 0.07
    Ls = np.linspace(0.005, 0.07, 20)
    Ms = np.array([graph.extension_constant(L) for L in Ls])
    assert np.all(np.diff(Ms) > 0)
    assert np.all(Ms <= 2 * Ls + 1e-15)
    assert graph.extension_constant(1e-8) < 1e-7
    with pytest.raises(ValueError):
        graph.extension_constant(0.0)


def test_extension_single_node_is_constant(small_spec):
    f, rep = graph.extend_lipschitz(
        small_spec, np.array([100]), np.array([0.7]), sup_bound=0.7,
        m_const=graph.extension_constant(0.5),
    )
    assert np.all(f.values == 0.7)
    assert graph.lipschitz_estimate(f, pair_budget=20000, seed=1) == 0.0


def test_extension_full_data_is_identity(small_spec):
    base = graph.GridFunction.from_callable(small_spec, linear_fn(0.05))
    f, rep = graph.extend_lipschitz(
        small_spec, np.arange(small_spec.size), base.flat, sup_bound=math.inf,
        m_const=graph.extension_constant(0.05),
    )
    assert np.array_equal(f.values, base.values)
    assert rep.iterations == 0


def test_extension_recovers_linear_graph():
    spec = graph.GridSpec.centered(2, 1.25, 0.25)
    eps, h = 0.05, 0.25
    base = graph.GridFunction.from_callable(spec, linear_fn(eps))
    rng = np.random.default_rng(3)
    K = np.sort(rng.choice(spec.size, size=spec.size // 2, replace=False))
    m_const = graph.extension_constant(eps)
    f, rep = graph.extend_lipschitz(
        spec, K, base.flat[K], sup_bound=float(np.abs(base.flat[K]).max()), m_const=m_const
    )
    in_d1 = core.box(spec.nodes()) < 1.0
    assert np.max(np.abs(f.flat - base.flat)[in_d1]) <= 2 * eps * h
    assert np.array_equal(f.flat[K], base.flat[K])
    assert graph.lipschitz_estimate(f, pair_budget=20000, seed=1) <= m_const * 1.1 + 1e-12


def test_extension_preserves_sup_norm(small_spec):
    base = graph.GridFunction.from_callable(small_spec, linear_fn(0.05))
    K = np.arange(0, small_spec.size, 7)
    sup = float(np.abs(base.flat[K]).max())
    f, _ = graph.extend_lipschitz(
        small_spec, K, base.flat[K], sup_bound=sup, m_const=graph.extension_constant(0.05)
    )
    assert np.abs(f.values).max() == pytest.approx(sup)


def test_extension_a_posteriori_bound(small_spec):
    for eps in (0.01, 0.05):
        base = graph.GridFunction.from_callable(small_spec, linear_fn(eps))
        K = np.arange(0, small_spec.size, 5)
        m_const = graph.extension_constant(eps)
        f, _ = graph.extend_lipschitz(
            small_spec, K, base.flat[K], sup_bound=math.inf, m_const=m_const
        )
        assert graph.lipschitz_estimate(f, pair_budget=20000, seed=1) <= m_const * 1.1


def test_extension_same_on_one_and_two_workers(monkeypatch):
    spec = graph.GridSpec.centered(2, 0.75, 0.25)
    base = graph.GridFunction.from_callable(
        spec, lambda w: 0.04 * w[:, 1] + 0.01 * np.sin(3 * w[:, 0] + w[:, 2])
    )
    K = np.sort(np.random.default_rng(5).choice(spec.size, size=spec.size // 3, replace=False))
    # about 20 fill rows per block, so each pass has several blocks
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * len(K) * 20)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        ratio = graph._cone_ratio(spec.nodes()[K], base.flat[K])
        f, rep = graph.extend_lipschitz(
            spec, K, base.flat[K], sup_bound=math.inf, m_const=graph.extension_constant(0.1)
        )
        runs.append((ratio, f.flat, rep.iterations, rep.residual))
    (ratio1, flat1, it1, res1), (ratio2, flat2, it2, res2) = runs
    assert ratio1 == ratio2
    np.testing.assert_array_equal(flat1, flat2)
    assert it1 == it2 > 1 and res1 == res2


@pytest.mark.parametrize("workers", [1, 2])
def test_block_loops_on_single_rows_match_one_block(monkeypatch, workers):
    # each block reuses its worker's arena planes, so a block that read a
    # plane an earlier block left behind would differ from one block
    spec = graph.GridSpec.centered(2, 0.75, 0.25)
    base = graph.GridFunction.from_callable(
        spec, lambda w: 0.04 * w[:, 1] + 0.01 * np.sin(3 * w[:, 0] + w[:, 2])
    )
    K = np.sort(np.random.default_rng(5).choice(spec.size, size=spec.size // 3, replace=False))

    def outcome():
        ratio = graph._cone_ratio(spec.nodes()[K], base.flat[K])
        runs = []
        for sup in (math.inf, 0.05):
            f, rep = graph.extend_lipschitz(
                spec, K, base.flat[K], sup_bound=sup, m_const=graph.extension_constant(0.1)
            )
            runs.append((f.flat, rep.iterations, rep.residual))
        return ratio, runs

    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 40)
    (ratio, runs) = outcome()
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8)  # one row per block
    monkeypatch.setattr(core, "_WORKERS", workers)
    got_ratio, got_runs = outcome()
    assert got_ratio == ratio and ratio[0] > 0
    for (flat, iters, res), (got_flat, got_iters, got_res) in zip(runs, got_runs):
        np.testing.assert_array_equal(got_flat, flat)
        assert got_iters == iters > 1 and got_res == res
    assert not np.array_equal(runs[0][0], runs[1][0])  # the sup bound clips


def test_kernel_result_held_by_caller_survives_block_loops(monkeypatch):
    # a public kernel call allocates its own planes, so no later block loop
    # can write into a result the caller still holds
    monkeypatch.setattr(core, "_WORKERS", 2)
    rng = np.random.default_rng(3)
    p, q = rng.normal(size=(40, 5)), rng.normal(size=(30, 5))
    held = core.pi_rel_norm(p[:, None, :], q[None, :, :])
    kept = held.copy()
    nodes = rng.uniform(-1.0, 1.0, size=(200, 4))
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 200 * 3)  # several blocks
    graph._cone_ratio(nodes, 0.05 * nodes[:, 1])
    np.testing.assert_array_equal(held, kept)


def test_extension_rejects_bad_cone(small_spec):
    # the caller checks the cone condition: approx._extend, under the fixed
    # policy, with the witness pair of _cone_ratio
    cells, vals = np.array([0, 1]), np.array([0.0, 10.0])
    ratio, pair = graph._cone_ratio(small_spec.nodes()[cells], vals)
    assert ratio > 0.1 and pair == (0, 1)
    fixed = approx.PipelineConfig(extension_policy="fixed", extension_l=0.1)
    with pytest.raises(graph.ConeViolationError) as info:
        approx._extend(small_spec, cells, vals, fixed)
    assert str(info.value) == f"partial data has cone ratio {ratio:.6g} > L = 0.1 (pair 0, 1)"
    # data within the fixed slope, and any data under the measured policy,
    # extend without a cone violation
    approx._extend(small_spec, cells, np.array([0.0, 1e-3]), fixed)
    approx._extend(small_spec, cells, np.array([0.0, 0.05]), approx.PipelineConfig())


def test_cone_ratio_exact_pair_and_zero_distance(small_spec):
    nodes = small_spec.nodes()[[0, 1, 9]]
    vals = np.array([0.0, 0.01, -0.02])
    ratio, (i, j) = graph._cone_ratio(nodes, vals)
    pts = core.graph_points(nodes, vals)

    def cone(a, b):
        d = min(core.pi_rel_norm(pts[a], pts[b]), core.pi_rel_norm(pts[b], pts[a]))
        return abs(vals[a] - vals[b]) / d

    assert ratio == cone(i, j) == max(cone(a, b) for a in range(3) for b in range(3) if a != b)
    with pytest.raises(graph.ConeViolationError, match="zero graph distance"):
        graph._cone_ratio(nodes[[0, 0]], np.array([0.0, 0.5]))


def test_extension_rejects_bad_input(small_spec):
    kw = {"m_const": graph.extension_constant(0.1)}
    with pytest.raises(ValueError):
        graph.extend_lipschitz(
            small_spec, np.array([], dtype=int), np.array([]), sup_bound=math.inf, **kw
        )
    with pytest.raises(ValueError):
        graph.extend_lipschitz(
            small_spec, np.array([3, 3]), np.array([0.0, 0.0]), sup_bound=math.inf, **kw
        )
    with pytest.raises(ValueError):
        graph.extend_lipschitz(small_spec, np.array([3]), np.array([2.0]), sup_bound=1.0, **kw)


def cone_ratio_reference(nodes, vals):
    """_cone_ratio over the full pair matrix, kept as the reference."""
    pts = core.graph_points(nodes, vals)
    m = len(vals)
    worst, pair = 0.0, (-1, -1)
    for blk in core._row_blocks(m, m):
        num = np.abs(vals[blk, None] - vals[None, :])
        den = np.minimum(
            core.pi_rel_norm(pts[None, :, :], pts[blk, None, :]),
            core.pi_rel_norm(pts[blk, None, :], pts[None, :, :]),
        )
        ok = den >= 1e-15
        if np.any(~ok & (num > 1e-12)):
            raise graph.ConeViolationError("distinct values at zero graph distance in partial data")
        ratio = np.where(ok, num / np.maximum(den, 1e-300), 0.0)
        k = int(np.argmax(ratio))
        if ratio.flat[k] > worst:
            worst, pair = float(ratio.flat[k]), (blk.start + k // m, k % m)
    return worst, pair


def cone_outcome(fn, nodes, vals):
    try:
        return fn(nodes, vals)
    except graph.ConeViolationError as exc:
        return str(exc)


@st.composite
def cone_data(draw):
    spec = graph.GridSpec.centered(2, 0.5, 0.25)
    m = draw(st.integers(1, 40))
    idx = np.array(draw(st.lists(st.integers(0, spec.size - 1), min_size=m, max_size=m,
                                 unique=draw(st.booleans()))))
    nodes = spec.nodes()[idx]
    kind = draw(st.sampled_from(("linear", "repeated", "random")))
    if kind == "linear":
        vals = draw(st.sampled_from((0.0, 0.01, 0.05))) * nodes[:, 1]
    elif kind == "repeated":
        vals = np.array(draw(st.lists(st.sampled_from((0.0, 0.01, -0.01)), min_size=m, max_size=m)))
    else:
        vals = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=m, max_size=m)))
    return nodes, vals, draw(st.integers(1, 7)), draw(st.sampled_from((1, 2)))


@given(cone_data())
@settings(max_examples=300, deadline=None)
def test_half_matrix_cone_ratio_matches_full_matrix(data):
    # forced ties (linear graphs, repeated values) and several row blocks,
    # most of them not dividing m, run by one thread or two, must keep the
    # witness pair
    nodes, vals, rows, workers = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", 8 * len(vals) * rows)
        mp.setattr(core, "_WORKERS", workers)
        got = cone_outcome(graph._cone_ratio, nodes, vals)
        assert got == cone_outcome(cone_ratio_reference, nodes, vals)
