"""Perimeter quadrature and excess against closed-form surfaces."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlip import core, graph, surface
from hlip.graph import GridFunction, GridSpec, intrinsic_gradient


KAPPA2 = 2 * core.unit_ball_volume(3)  # measure of the unit disk in W, n = 2


def flat_disk_setup(h=0.05, half=1.0, value=0.0):
    spec = GridSpec.centered(2, half, h)
    f = GridFunction.constant(spec, value)
    return spec, f


def test_flat_perimeter_over_unit_disk_matches_kappa():
    spec, f = flat_disk_setup()
    mask = surface.disk_mask(spec, 1.0)
    per = surface.hperimeter(f, region=mask)
    assert abs(per - KAPPA2) / KAPPA2 < 0.01


def test_linear_graph_perimeter_carries_sqrt2_density():
    # phi = y_1 has intrinsic gradient (0, 1, 0), area element sqrt(2)
    spec = GridSpec.centered(2, 1.0, 0.05)
    f = GridFunction.from_callable(spec, lambda w: w[:, 1])
    mask = surface.disk_mask(spec, 1.0)
    per = surface.hperimeter(f, region=mask)
    flat = surface.hperimeter(GridFunction.constant(spec, 0.0), region=mask)
    assert math.isclose(per, math.sqrt(2) * flat, rel_tol=1e-12)
    assert abs(per - math.sqrt(2) * KAPPA2) / KAPPA2 < 0.015


def test_perimeter_region_forms_agree():
    # a flat node mask and one shaped like the grid select the same nodes
    spec, f = flat_disk_setup(h=0.2, half=0.6)
    mask = surface.disk_mask(spec, 0.5)
    shaped = surface.hperimeter(f, region=mask.reshape(spec.counts))
    assert surface.hperimeter(f, region=mask) == shaped
    with pytest.raises(ValueError):
        surface.hperimeter(f, region=np.ones(7, dtype=bool))


def epigraph_normal(f, orientation=1):
    """The unit horizontal normal of the subgraph boundary at every node."""
    return surface.sample_graph_boundary(f, orientation=orientation).normals


def test_epigraph_normal_slots_and_unit_length():
    spec = GridSpec.centered(2, 0.5, 0.25)
    nodes = spec.nodes()
    s = 1 / math.sqrt(2)

    nu = epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 0]))
    assert np.allclose(nu, np.tile([s, -s, 0, 0], (spec.size, 1)), atol=1e-12)

    nu = epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 1]))
    # Burgers component lands in the Y_1 slot of the frame
    assert np.allclose(nu, np.tile([s, 0, -s, 0], (spec.size, 1)), atol=1e-12)

    nu = epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 2]))
    assert np.allclose(nu, np.tile([s, 0, 0, -s], (spec.size, 1)), atol=1e-12)

    rough = GridFunction.from_callable(
        spec, lambda w: 0.2 * np.sin(w[:, 2]) + 0.1 * w[:, 0] * w[:, 1]
    )
    lens = np.linalg.norm(epigraph_normal(rough), axis=1)
    assert np.max(np.abs(lens - 1.0)) < 1e-13
    flipped = epigraph_normal(rough, orientation=-1)
    assert np.allclose(flipped, -epigraph_normal(rough), atol=0)
    with pytest.raises(ValueError):
        epigraph_normal(rough, orientation=0)


def test_sampling_conserves_perimeter_at_stride_one():
    spec = GridSpec.centered(2, 0.8, 0.1)
    f = GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 2])
    cloud = surface.sample_graph_boundary(f)
    assert math.isclose(float(np.sum(cloud.weights)), surface.hperimeter(f), rel_tol=1e-14)
    assert len(cloud) == spec.size
    assert cloud.meta["stride"] == 1


def test_strided_sampling_approximates_perimeter():
    spec = GridSpec.centered(2, 1.0, 0.05)
    f = GridFunction.constant(spec, 0.0)
    fine = surface.sample_graph_boundary(f)
    coarse = surface.sample_graph_boundary(f, stride=2)
    assert len(coarse) == len(fine) // 16
    assert math.isclose(float(np.sum(coarse.weights)), float(np.sum(fine.weights)), rel_tol=1e-12)
    with pytest.raises(ValueError):
        surface.sample_graph_boundary(f, stride=0)


def test_cloud_validation():
    spec = GridSpec.centered(2, 0.5, 0.25)
    f = GridFunction.constant(spec, 0.0)
    cloud = surface.sample_graph_boundary(f)
    with pytest.raises(ValueError):
        surface.BoundaryCloud(2, cloud.points, cloud.normals * 1.01, cloud.weights)
    with pytest.raises(ValueError):
        surface.BoundaryCloud(2, cloud.points, cloud.normals, -cloud.weights - 1.0)
    with pytest.raises(ValueError):
        surface.BoundaryCloud(2, cloud.points[:0], cloud.normals[:0], cloud.weights[:0])
    with pytest.raises(ValueError):
        surface.BoundaryCloud(2, cloud.points, cloud.normals, cloud.weights,
                              meta={"minimality": {"lambda": 3.0, "r0": 0.5}})
    ok = surface.BoundaryCloud(2, cloud.points, cloud.normals, cloud.weights,
                               meta={"minimality": {"lambda": 2.0, "r0": 0.5}})
    assert ok.meta["minimality"]["lambda"] == 2.0

    sub = cloud.subset(np.arange(5))
    assert len(sub) == 5


def test_flat_cloud_has_zero_excess():
    spec, f = flat_disk_setup(h=0.1)
    cloud = surface.sample_graph_boundary(f)
    rep = surface.excess_cloud(cloud, r=0.9)
    assert rep.excess == 0.0
    assert rep.count > 0
    # opposite reference direction sees the full defect of 2 per unit mass
    flip = surface.excess_cloud(cloud, r=0.9, orientation=-1)
    assert math.isclose(flip.excess * 0.9**5, 2 * flip.mass, rel_tol=1e-12)
    matched = surface.excess_cloud(
        surface.sample_graph_boundary(f, orientation=-1), r=0.9, orientation=-1
    )
    assert matched.excess == 0.0


def test_linear_graph_excess_anchor():
    # phi = y_1: constant normal defect 1 - 1/sqrt(2), excess (sqrt2-1)*kappa
    spec = GridSpec.centered(2, 1.0, 0.05)
    f = GridFunction.from_callable(spec, lambda w: w[:, 1])
    cloud = surface.sample_graph_boundary(f)
    anchor = (math.sqrt(2) - 1) * KAPPA2
    # scales with s^2 a multiple of h, so the t-slab tiles exactly
    for rep in surface.excess_profile(cloud, scales=(0.5, math.sqrt(0.7), 1.0)):
        assert abs(rep.excess - anchor) / anchor < 0.02, rep


def test_excess_dilation_invariance_exact_for_doubling():
    spec = GridSpec.centered(2, 0.75, 0.125)
    f = GridFunction.from_callable(spec, lambda w: 0.2 * w[:, 2] + 0.1 * w[:, 0])
    cloud = surface.sample_graph_boundary(f)
    base = surface.excess_cloud(cloud, r=0.6)
    # powers of two scale every coordinate and weight exactly
    scaled = surface.excess_cloud(surface.dilate_cloud(2.0, cloud), r=1.2)
    assert math.isclose(scaled.excess, base.excess, rel_tol=1e-13)
    assert scaled.count == base.count
    general = surface.excess_cloud(surface.dilate_cloud(1.5, cloud), r=0.9)
    assert math.isclose(general.excess, base.excess, rel_tol=1e-9)
    with pytest.raises(ValueError):
        surface.dilate_cloud(0.0, cloud)


def test_excess_scale_comparison_inequality():
    spec = GridSpec.centered(2, 1.0, 0.1)
    f = GridFunction.from_callable(
        spec, lambda w: 0.3 * np.sin(w[:, 2]) + 0.1 * w[:, 0] * w[:, 1]
    )
    cloud = surface.sample_graph_boundary(f)
    small = surface.excess_cloud(cloud, r=0.5)
    big = surface.excess_cloud(cloud, r=1.0)
    assert small.excess <= (1.0 / 0.5) ** 5 * big.excess + 1e-12
    assert small.mass <= big.mass


def test_excess_translated_center():
    spec = GridSpec.centered(2, 1.0, 0.1)
    f = GridFunction.constant(spec, 0.0)
    cloud = surface.sample_graph_boundary(f)
    p = np.array([0.0, 0.2, 0.1, 0.0, 0.05])
    rep = surface.excess_cloud(cloud, center=p, r=0.4)
    assert rep.excess == 0.0
    assert 0 < rep.count < len(cloud)
    with pytest.raises(ValueError):
        surface.cylinder_mask(cloud, p, -1.0)


def test_height_bound_ratio_conventions():
    spec = GridSpec.centered(2, 1.0, 0.1)
    flat = GridFunction.constant(spec, 0.0)
    assert surface.height_bound_ratio(flat, 0.5)["ratio"] == 0.0

    lifted = GridFunction.constant(spec, 0.3)
    rep = surface.height_bound_ratio(lifted, 0.5)
    assert rep["sup_height"] == pytest.approx(0.3)
    assert rep["ratio"] == math.inf

    tilted = GridFunction.from_callable(spec, lambda w: 0.2 * w[:, 2])
    rep = surface.height_bound_ratio(tilted, 0.5)
    assert rep["outer_radius"] == 8.0
    assert 0 < rep["ratio"] < math.inf
    with pytest.raises(ValueError):
        surface.height_bound_ratio(tilted, 0.0)


def test_surface_api_in_higher_dimension():
    spec = GridSpec.centered(3, 0.5, 0.25)
    f = GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 2])  # phi = y_1
    cloud = surface.sample_graph_boundary(f)
    assert cloud.normals.shape == (spec.size, 6)
    area = math.sqrt(1 + 0.01)
    assert math.isclose(
        float(np.sum(cloud.weights)), area * spec.size * spec.cell_volume, rel_tol=1e-12
    )
    rep = surface.excess_cloud(cloud, r=0.4)
    expected = (1 - 1 / area) * rep.mass / 0.4**7
    assert math.isclose(rep.excess, expected, rel_tol=1e-12)


# ------------------------------------------------- streamed graph samples


def two_pass_cloud(f, stride, orientation):
    """sample_graph_boundary's arrays as two whole-grid gradient passes give
    them: one for the normals, one for the area element."""
    spec, n = f.spec, f.spec.n
    sel = np.zeros(spec.counts, dtype=bool)
    sel[tuple(slice(None, None, stride) for _ in range(2 * n))] = True
    sel = sel.ravel()
    g = intrinsic_gradient(f).components.reshape(2 * n - 1, -1).T
    nu = np.empty((len(g), 2 * n))
    nu[:, 0] = 1.0
    nu[:, 1:] = -g
    nu *= orientation / np.sqrt(1.0 + np.sum(g**2, axis=1))[:, None]
    area = np.sqrt(1.0 + intrinsic_gradient(f).norm_sq()).ravel()[sel]
    return f.graph()[sel], nu[sel], area * (stride * spec.h) ** (2 * n)


def bits(a):
    return a.shape, a.tobytes()


@pytest.mark.parametrize("n,half,h", [(2, 0.6, 0.2), (3, 0.5, 0.25)])
@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("rows", [7, None])  # short blocks, or the default budget
def test_graph_samples_match_the_two_pass_reference(monkeypatch, n, half, h, orientation, rows):
    spec = GridSpec.centered(n, half, h)
    f = GridFunction.from_callable(spec, lambda w: 0.3 * np.sin(3.0 * w[:, 0]) + w[:, n - 1] ** 2)
    if rows:
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * (2 * n + 1) * rows)
        # the node array spans many blocks, so each block's coordinates
        # are built by graph._node_block, not read from grid_nodes' cache
        assert 8 * 2 * n * spec.size > core._BLOCK_BYTES
    for stride in (1, 2):
        cloud = surface.sample_graph_boundary(f, stride=stride, orientation=orientation)
        want = two_pass_cloud(f, stride, orientation)
        got = (cloud.points, cloud.normals, cloud.weights)
        assert [bits(a) for a in got] == [bits(a) for a in want]


@pytest.mark.parametrize("n,half,h", [(2, 0.6, 0.2), (3, 0.5, 0.25)])
@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("slab_rows", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_graph_samples_in_slabs_match_a_whole_grid_pass(
    monkeypatch, n, half, h, orientation, slab_rows, workers
):
    # the stream's gradient pass in x_2-slabs of one or two axis-0 rows,
    # against the reference taken from one whole-grid pass at the default
    # budget, for the bare stream and the stride-1 and stride-2 clouds
    spec = GridSpec.centered(n, half, h)
    f = GridFunction.from_callable(spec, lambda w: 0.3 * np.sin(3.0 * w[:, 0]) + w[:, n - 1] ** 2)
    want = {stride: two_pass_cloud(f, stride, orientation) for stride in (1, 2)}
    row = spec.size // spec.counts[0]
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * (2 * n + 1) * row * slab_rows)
    monkeypatch.setattr(core, "_WORKERS", workers)
    got = [np.concatenate(parts) for parts in zip(*surface._graph_blocks(f, orientation))]
    assert [bits(a) for a in got] == [bits(a) for a in want[1]]
    for stride in (1, 2):
        cloud = surface.sample_graph_boundary(f, stride=stride, orientation=orientation)
        got = (cloud.points, cloud.normals, cloud.weights)
        assert [bits(a) for a in got] == [bits(a) for a in want[stride]]


@pytest.mark.parametrize("n,half,h", [(2, 0.6, 0.2), (3, 0.5, 0.25)])
def test_graph_sample_weights_are_the_area_element(monkeypatch, n, half, h):
    # the samples and graph._area read the area element of one stencil
    # pass, here on a grid of one axis-0 row per slab
    spec = GridSpec.centered(n, half, h)
    f = GridFunction.from_callable(spec, lambda w: 0.3 * np.sin(3.0 * w[:, 0]) + w[:, n - 1] ** 2)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * (2 * n + 1) * (spec.size // spec.counts[0]))
    assert len(list(graph._slab_planes(spec))) == spec.counts[0] > 1
    weights = surface.sample_graph_boundary(f).weights
    assert bits(weights) == bits(graph._area(f).ravel() * spec.cell_volume)


@pytest.mark.parametrize("axis", [0, 3])
def test_graph_samples_need_three_nodes_per_axis(axis):
    counts = [5, 4, 5, 6]
    counts[axis] = 2
    f = GridFunction.constant(GridSpec(2, (0.0,) * 4, 0.25, tuple(counts)), 0.1)
    with pytest.raises(ValueError, match="at least 3 nodes per axis"):
        surface.sample_graph_boundary(f)
    with pytest.raises(ValueError, match="at least 3 nodes per axis"):
        surface.height_bound_ratio(f, 0.5)


HEIGHT_SPECS = {2: GridSpec.centered(2, 0.6, 0.2), 3: GridSpec.centered(3, 0.5, 0.25)}
HEIGHT_GRAPHS = {
    "linear": lambda a: lambda w: a * (w[:, 1] - 0.5 * w[:, 0]),
    "sine": lambda a: lambda w: a * np.sin(4.0 * w[:, 0] + w[:, -1]),
    "constant": lambda a: lambda w: np.full(len(w), a),  # ratio 0 at a = 0 or empty C_r0, else inf
}


def height_bound_of_cloud(cloud, r0, orientation):
    """height_bound_ratio's dict from the whole-cloud formulas."""
    inside = surface.cylinder_mask(cloud, np.zeros(2 * cloud.n + 1), r0)
    sup_h = float(np.max(np.abs(cloud.heights[inside]))) if inside.any() else 0.0
    excess = surface.excess_cloud(cloud, None, 16.0 * r0, orientation).excess
    if sup_h == 0.0:
        ratio = 0.0
    elif excess <= 0.0:
        ratio = math.inf
    else:
        ratio = (sup_h / r0) / excess ** (1.0 / (2 * (2 * cloud.n + 1)))
    return {
        "sup_height": sup_h,
        "r0": r0,
        "excess_at_outer": excess,
        "outer_radius": 16.0 * r0,
        "ratio": ratio,
    }


@given(
    st.sampled_from((2, 3)),
    st.sampled_from((1, -1)),
    st.sampled_from(sorted(HEIGHT_GRAPHS)),
    st.sampled_from((0.0, 0.05, 0.3)),
    st.sampled_from(("empty", "partial", "whole")),
    st.floats(0.05, 0.95),
    st.integers(2, 300),
)
@settings(max_examples=60, deadline=None)
def test_streamed_height_bound_matches_the_cloud(n, orientation, kind, a, cover, u, rows):
    spec = HEIGHT_SPECS[n]
    assume(spec.size % rows)  # the last block is a short one
    f = GridFunction.from_callable(spec, HEIGHT_GRAPHS[kind](a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", 8 * (2 * n + 1) * rows)
        cloud = surface.sample_graph_boundary(f, orientation=orientation)
        norms = core.cylnorm(cloud.points)
        lo, hi = float(norms.min()), float(norms.max())
        r0 = {"empty": 0.5 * lo, "partial": lo + u * (hi - lo), "whole": 2.0 * hi}[cover]
        inside = surface.cylinder_mask(cloud, np.zeros(2 * n + 1), r0)
        assert {"empty": 0, "partial": 1, "whole": 2}[cover] == (
            0 if not inside.any() else 2 if inside.all() else 1
        )
        got = surface.height_bound_ratio(f, r0, orientation)
    assert got == height_bound_of_cloud(cloud, r0, orientation)


def test_streamed_height_bound_builds_no_node_array():
    # the tilted graph and its streamed height bound on the 160,000-node
    # grid never ask grid_nodes for the whole grid's coordinates
    spec = GridSpec.centered(2, 1.0, 0.1)
    before = graph.grid_nodes.cache_info()
    f = GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 1])
    surface.height_bound_ratio(f, 0.5)
    after = graph.grid_nodes.cache_info()
    assert after == before  # no call at all, so no entry either


def test_streamed_height_bound_holds_no_cloud():
    # the streamed check holds the compact excess buffer (one float per
    # node), the gradient planes of one x_2-slab (within one _BLOCK_BYTES
    # block of samples together) and one block of samples with its
    # temporaries: under 2 floats per node plus a few _BLOCK_BYTES planes,
    # where the graph's cloud would hold about 17 floats per node
    spec = GridSpec.centered(2, 1.0, 0.1)
    f = GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 1])
    bound = 2 * 8 * spec.size + 4 * core._BLOCK_BYTES

    def peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = run()
            return tracemalloc.get_traced_memory()[1] - start, out
        finally:
            tracemalloc.stop()

    streamed, rep = peak(lambda: surface.height_bound_ratio(f, 0.5))
    assert streamed <= bound
    assert rep == height_bound_of_cloud(surface.sample_graph_boundary(f), 0.5, 1)
