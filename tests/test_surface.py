"""Perimeter quadrature and excess against closed-form surfaces."""

import math

import numpy as np
import pytest

from hlip import core, surface
from hlip.graph import GridFunction, GridSpec


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
    spec, f = flat_disk_setup(h=0.2, half=0.6)
    mask = surface.disk_mask(spec, 0.5)
    via_callable = surface.hperimeter(f, region=lambda nodes: core.box(nodes) < 0.5)
    assert math.isclose(surface.hperimeter(f, region=mask), via_callable, rel_tol=1e-15)
    with pytest.raises(ValueError):
        surface.hperimeter(f, region=np.ones(7, dtype=bool))


def test_epigraph_normal_slots_and_unit_length():
    spec = GridSpec.centered(2, 0.5, 0.25)
    nodes = spec.nodes()
    s = 1 / math.sqrt(2)

    nu = surface.epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 0]))
    assert np.allclose(nu, np.tile([s, -s, 0, 0], (spec.size, 1)), atol=1e-12)

    nu = surface.epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 1]))
    # Burgers component lands in the Y_1 slot of the frame
    assert np.allclose(nu, np.tile([s, 0, -s, 0], (spec.size, 1)), atol=1e-12)

    nu = surface.epigraph_normal(GridFunction.from_callable(spec, lambda w: w[:, 2]))
    assert np.allclose(nu, np.tile([s, 0, 0, -s], (spec.size, 1)), atol=1e-12)

    rough = GridFunction.from_callable(
        spec, lambda w: 0.2 * np.sin(w[:, 2]) + 0.1 * w[:, 0] * w[:, 1]
    )
    lens = np.linalg.norm(surface.epigraph_normal(rough), axis=1)
    assert np.max(np.abs(lens - 1.0)) < 1e-13
    flipped = surface.epigraph_normal(rough, orientation=-1)
    assert np.allclose(flipped, -surface.epigraph_normal(rough), atol=0)
    with pytest.raises(ValueError):
        surface.epigraph_normal(rough, orientation=0)


def test_sampling_conserves_perimeter_at_stride_one():
    spec = GridSpec.centered(2, 0.8, 0.1)
    f = GridFunction.from_callable(spec, lambda w: 0.1 * w[:, 2])
    mask = surface.disk_mask(spec, 0.7)
    cloud = surface.sample_graph_boundary(f, region=mask)
    assert math.isclose(float(np.sum(cloud.weights)), surface.hperimeter(f, region=mask),
                        rel_tol=1e-14)
    assert len(cloud) == int(np.count_nonzero(mask))
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
    assert rep.center == tuple(p)
    with pytest.raises(ValueError):
        surface.cylinder_mask(cloud, p, -1.0)


def test_height_bound_ratio_conventions():
    spec = GridSpec.centered(2, 1.0, 0.1)
    flat = surface.sample_graph_boundary(GridFunction.constant(spec, 0.0))
    assert surface.height_bound_ratio(flat, 0.5)["ratio"] == 0.0

    lifted = surface.sample_graph_boundary(GridFunction.constant(spec, 0.3))
    rep = surface.height_bound_ratio(lifted, 0.5)
    assert rep["sup_height"] == pytest.approx(0.3)
    assert rep["ratio"] == math.inf

    tilted = surface.sample_graph_boundary(
        GridFunction.from_callable(spec, lambda w: 0.2 * w[:, 2])
    )
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
