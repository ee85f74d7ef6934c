"""Approximation pipelines: selection, deposit, extension, truncation, lemmas."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlip import approx, core, generators, graph, maximal, surface
from hlip.approx import PipelineConfig
from hlip.graph import GridFunction, GridSpec
from hlip.surface import disk_mask, excess_cloud

KAPPA2 = core.constants(2)[0]


@pytest.fixture(scope="module")
def spec():
    # desk-scale pipeline grid: D_1 fits with tau = 2h = 0.5 and the
    # corrupted-sample displacement 1.0 clears the match threshold 0.75
    return GridSpec.centered(2, 1.0, 0.25)


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig()


@pytest.fixture(scope="module")
def flat_result(spec, cfg):
    cloud = generators.flat_cloud(spec)
    return cloud, approx.lipschitz_approximation(cloud, spec, cfg)


@pytest.fixture(scope="module")
def eps_result(spec, cfg):
    cloud = generators.linear_cloud(spec, 0.05)
    return cloud, approx.lipschitz_approximation(cloud, spec, cfg)


def manual_cloud(w, heights, weights):
    w = np.asarray(w, dtype=float)
    pts = core.graph_points(w, np.asarray(heights, dtype=float))
    nrm = np.zeros((len(pts), 4))
    nrm[:, 0] = 1.0
    return surface.BoundaryCloud(2, pts, nrm, np.asarray(weights, dtype=float))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(delta1=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(scales=())
    with pytest.raises(ValueError):
        PipelineConfig(alpha=0.5)
    with pytest.raises(ValueError):
        PipelineConfig(alpha=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(orientation=2)
    with pytest.raises(ValueError):
        PipelineConfig(tau=-1.0)
    cfg = PipelineConfig()
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.resolved_tau(GridSpec.centered(2, 1.0, 0.25)) == 0.5
    assert cfg.resolved_maximal_scale() == cfg.outer_scale / 4.0
    assert max(cfg.scales) <= cfg.outer_scale


# NaN and inf in every checked field; and the integer fields and gamma2
# at values that raised deep in a stage, or ran on as a negative rho
BAD_CONFIG = [
    *((name, bad)
      for name in ["delta1", "scales", "alpha", "tau", "outer_scale", "inner_radius",
                   "maximal_scale", "eta_override", "extension_l", "gamma2", "pair_budget",
                   "seed"]
      for bad in (math.nan, math.inf)),
    ("gamma2", -1.0), ("gamma2", 0.0),
    ("pair_budget", 2.5), ("pair_budget", 0), ("pair_budget", True),
    ("seed", 1.5), ("seed", -1), ("seed", 2**64),
]


@pytest.mark.parametrize("name, bad", BAD_CONFIG, ids=[f"{n}-{b}" for n, b in BAD_CONFIG])
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError):
        PipelineConfig(**{name: (0.5, bad) if name == "scales" else bad})


def test_reference_ratios_recorded():
    # the continuum statements order their scales inner < scan < outer; the
    # desk-scale defaults keep that order, and every report records the layout
    cfg = PipelineConfig()
    assert list(cfg.scales) == sorted(set(cfg.scales))
    assert cfg.scales[-1] < cfg.outer_scale
    assert cfg.resolved_maximal_scale() < cfg.outer_scale
    d = cfg.to_dict()
    assert (d["scales"], d["outer_scale"]) == (list(cfg.scales), cfg.outer_scale)


# ------------------------------------------------------------- selection


def test_select_m0_flat_all(spec, cfg, flat_result):
    cloud, _ = flat_result
    m0 = approx.select_m0(cloud, spec, cfg)
    assert np.array_equal(np.sort(m0), np.arange(len(cloud)))


def max_excess(cloud, center, scales, orientation):
    """max(0, max over scales of excess_cloud): the excess selection thresholds."""
    return max([0.0] + [excess_cloud(cloud, center, s, orientation).excess for s in scales])


def test_sup_excess_matches_per_center_excess(spec, cfg):
    # selection's excess must equal the public per-center excess bit for
    # bit at each sample of a small mixed cloud
    cloud = generators.corrupted_cluster_cloud(spec, 2**-4, eps=0.1, displacement=0.3)
    keep = np.arange(0, len(cloud), 23)
    small = cloud.subset(keep)
    prof = approx._excess_above(small, small.points, cfg.scales, cfg.orientation, 0.0)
    for i in range(len(small)):
        assert prof[i] == max_excess(small, small.points[i], cfg.scales, cfg.orientation)


def test_sup_excess_matches_per_center_excess_at_n3_ties():
    # at n = 3 and h = 0.3 four coordinate gaps of h square-sum to 4h^2,
    # a tie with the scan scale 2h, so cylinder membership depends on the
    # order pi_rel_norm adds the squares in; it must be box's order
    counts = (4, 3, 3, 3, 3, 4)
    spec = GridSpec(3, tuple(-(c - 1) * 0.3 / 2.0 for c in counts), 0.3, counts)
    cloud = generators.corrupted_cluster_cloud(spec, 0.059049, eps=0.0, displacement=0.3)
    got = approx._excess_above(cloud, cloud.points, (0.6,), 1, 0.0)
    want = [max_excess(cloud, c, (0.6,), 1) for c in cloud.points]
    np.testing.assert_array_equal(got, want)


def test_select_m0_cluster_excluded_and_monotone(spec):
    cloud = generators.corrupted_cluster_cloud(spec, 2**-4, displacement=1.0)
    bad = np.asarray(cloud.meta["cluster_indices"])
    sizes = []
    for d1 in (0.01, 0.1, 40.0, 1e4):
        m0 = approx.select_m0(cloud, spec, PipelineConfig(delta1=d1))
        sizes.append(len(m0))
        if d1 <= 0.1:
            assert np.array_equal(np.sort(m0), np.setdiff1d(np.arange(len(cloud)), bad))
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(cloud)


# ------------------------------------------- cell lists against all pairs
# The references are the all-pairs loops the cell-list searches replaced;
# select_m0 must keep the same index set and cell_min_dist the same bits.


def sup_excess_reference(cloud, centers, scales, orientation=1):
    q = 2 * cloud.n + 1
    defect = cloud.weights * (1.0 - orientation * cloud.normals[:, 0])
    out = np.empty(len(centers))
    for blk in core._row_blocks(len(centers), len(cloud)):
        c = centers[blk]
        dist = np.maximum(
            core.pi_rel_norm(c[:, None, :], cloud.points[None, :, :]),
            np.abs(cloud.points[None, :, 0] - c[:, None, 0]),
        )
        best = np.zeros(len(c))
        for s in scales:
            e = np.sum(np.where(dist < s, defect[None, :], 0.0), axis=1) / float(s) ** q
            np.maximum(best, e, out=best)
        out[blk] = best
    return out


def nearest_dinf_reference(targets, points):
    out = np.empty(len(targets))
    for blk in core._row_blocks(len(targets), len(points)):
        out[blk] = np.min(core.dinf(targets[blk, None, :], points[None, :, :]), axis=1)
    return out


@st.composite
def cut_clouds(draw):
    """A corrupted-cluster or deleted-patch cloud at h in {0.3, 0.5}, n in {2, 3}."""
    n = draw(st.sampled_from((2, 3)))
    h = draw(st.sampled_from((0.3, 0.5)))
    # the pipeline grid for n = 2; for n = 3 a window of 3 to 4 nodes per
    # axis (the gradient needs 3) keeps the all-pairs reference cheap
    if n == 2:
        spec = generators.default_grid(2, h)
    else:
        counts = (4, 3, 3, 3, 3, 4)
        spec = GridSpec(3, tuple(-(c - 1) * h / 2.0 for c in counts), h, counts)
    eps = draw(st.floats(0.0, 0.2))
    center = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(2 * n - 1)) + (
        draw(st.floats(-0.3, 0.3)),
    )
    orientation = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        total = float(np.sum(generators.linear_cloud(spec, eps).weights))
        cloud = generators.corrupted_cluster_cloud(
            spec, draw(st.floats(0.005, 0.1)) * total, eps=eps, center=center,
            displacement=draw(st.floats(0.05, 1.0)), orientation=orientation,
        )
    else:
        cloud = generators.deleted_patch_cloud(
            spec, draw(st.floats(0.1, 0.5)), eps=eps, center=center, orientation=orientation
        )
    return spec, cloud


SCALE_SETS = ((0.25, 0.5, 1.0), (0.3, 0.6, 0.9), (0.2, 0.7), (0.5,), (0.05, 0.3))


@given(
    cut_clouds(),
    st.sampled_from(SCALE_SETS),
    st.sampled_from((0.003, 0.03, 0.1, 1.0)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_select_m0_matches_all_pairs(spec_cloud, scales, delta1, seed):
    # scales that are whole multiples of h test the cell reach at its edge
    spec, cloud = spec_cloud
    orientation = int(cloud.meta["params"]["orientation"])
    cfg = PipelineConfig(scales=scales, delta1=delta1, orientation=orientation)
    ref = sup_excess_reference(cloud, cloud.points, scales, orientation)
    np.testing.assert_array_equal(
        approx.select_m0(cloud, spec, cfg), np.flatnonzero(ref <= delta1)
    )
    # off-grid centers, some outside the cloud
    centers = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(40, 2 * spec.n + 1))
    oracle = np.array([max_excess(cloud, c, scales, orientation) for c in centers])
    np.testing.assert_array_equal(
        approx._excess_above(cloud, centers, scales, orientation, 0.0), oracle
    )
    # above delta1 the exact excess; at or below it only a value in [0, delta1]
    got = approx._excess_above(cloud, centers, scales, orientation, delta1)
    above = got > delta1
    np.testing.assert_array_equal(got[above], oracle[above])
    assert np.all((got[~above] >= 0.0) & (oracle[~above] <= delta1))


@pytest.mark.parametrize("length", [*range(21), 63, 64, 65, 127, 128, 129, 257, 1000])
def test_row_sums_of_a_c_contiguous_plane_are_one_row_sums(length):
    # _excess_above sums the in-cylinder terms of many rows at once with
    # np.sum(..., axis=1); that keeps the bits of excess_cloud's one-row
    # np.sum only while numpy sums each C-contiguous row as it sums that
    # row alone.  A numpy that reorders its reductions fails here first
    rng = np.random.default_rng(length)
    for rows in (1, 7, 2000 if length <= 257 else 300):
        x = rng.standard_normal((rows, length)) * 10.0 ** rng.uniform(-8, 8, (rows, length))
        assert x.flags.c_contiguous
        np.testing.assert_array_equal(np.sum(x, axis=1), [np.sum(r) for r in x])


@given(
    cut_clouds(),
    st.sampled_from(((0.25, 1.5), (0.5, 2.0), (2.0,))),
    st.sampled_from((0.0, 0.003, 0.1)),
    st.sampled_from((1, 64, None)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_excess_above_batched_row_sums_match_excess_cloud(spec_cloud, scales, delta1, rows, seed):
    # random centres, far centres whose cylinders hold no sample, and
    # samples whose largest cylinder holds more than 128 (where np.sum
    # turns pairwise); each block's rows summed at once, in blocks of one
    # row or of at most 64 terms (a _BLOCK_BYTES of 1 or 64 floats) or of
    # the default size
    spec, cloud = spec_cloud
    orientation = int(cloud.meta["params"]["orientation"])
    rng = np.random.default_rng(seed)
    centers = np.concatenate([
        cloud.points[rng.permutation(len(cloud))[:15]],
        rng.uniform(-1.5, 1.5, size=(15, 2 * spec.n + 1)),
        rng.uniform(-1.0, 1.0, size=(5, 2 * spec.n + 1)) + np.array([10.0] * (2 * spec.n) + [0.0]),
    ])
    counts = [excess_cloud(cloud, c, s, orientation).count for c in centers for s in scales]
    assert min(counts) == 0 and max(counts) > 128
    oracle = np.array([max_excess(cloud, c, scales, orientation) for c in centers])
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(core, "_BLOCK_BYTES", 8 * rows)
        got = approx._excess_above(cloud, centers, scales, orientation, delta1)
    above = got > delta1
    np.testing.assert_array_equal(above, oracle > delta1)
    np.testing.assert_array_equal(got[above], oracle[above])
    assert np.all((got[~above] >= 0.0) & (got[~above] <= delta1))
    if delta1 == 0.0:
        np.testing.assert_array_equal(got, oracle)


@given(cut_clouds(), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cell_min_dist_matches_all_pairs(spec_cloud, level, slope, seed):
    spec, cloud = spec_cloud
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, (level + slope * spec.nodes()[:, spec.n - 1]).reshape(spec.counts))
    region = rng.random(spec.size) < 0.7
    sym = approx.sym_diff_measure(cloud, f, 0.1, region=region)
    want = np.full(spec.size, np.inf)
    want[region] = nearest_dinf_reference(f.graph()[region], cloud.points)
    np.testing.assert_array_equal(sym.cell_min_dist, want)
    # off-grid targets against the cloud and a sparse subset of it: far
    # ones, and samples moved up to 2h in x_2..y_n, whose nearest point
    # often lies a ring or two away
    sparse = cloud.points[rng.permutation(len(cloud))[:40]]
    moved = sparse[rng.integers(0, len(sparse), 60)]
    moved[:, 1 : 2 * spec.n] += rng.uniform(-2 * spec.h, 2 * spec.h, (60, 2 * spec.n - 1))
    far = rng.uniform(-3.0, 3.0, size=(40, 2 * spec.n + 1))
    targets = np.concatenate([moved, far])
    for points in (cloud.points, sparse):
        np.testing.assert_array_equal(
            approx._nearest_dinf(targets, points, spec.h),
            nearest_dinf_reference(targets, points),
        )


# the cut golden clouds of tests/test_golden.py, as `hlip gen` arguments
CUT_CLOUDS = {
    "cluster-0.02": ["corrupted-cluster", "--mass", "0.02", "--eps", "0.05", "--displacement", "0.3"],
    "cluster-0.05": ["corrupted-cluster", "--mass", "0.05", "--eps", "0.05", "--displacement", "0.3"],
    "cluster-0.02-far": ["corrupted-cluster", "--mass", "0.02", "--eps", "0.05", "--displacement", "1.0"],
    "deleted-patch": ["deleted-patch", "--eps", "0.05", "--radius", "0.4"],
    "deleted-patch-0.9": ["deleted-patch", "--eps", "0.05", "--radius", "0.9"],
}


@pytest.mark.parametrize("maximal_scale", [None, 0.2])
@pytest.mark.parametrize("name", sorted(CUT_CLOUDS))
def test_refit_symdiff_reusing_truncate_distances_matches_a_fresh_pass(tmp_path, name, maximal_scale):
    # corollary_report's refit takes truncate's nearest distance at every
    # cell where it kept phi's bits; the report must be the fresh pass's.
    # At maximal scale 0.2 truncate's region D_{0.8} leaves part of the disk
    from hlip import cli, fileio

    args = CUT_CLOUDS[name]
    assert cli.main(["gen", *args, "--h", "0.3", "--seed", "7", "--out", str(tmp_path)]) == 0
    cloud = fileio.read_cloud(tmp_path / f"{args[0]}.cloud")
    spec = generators.default_grid(2, 0.3)
    cfg = PipelineConfig(seed=7, maximal_scale=maximal_scale)
    res = approx.lipschitz_approximation(cloud, spec, cfg)
    trunc = approx.truncate(cloud, res.phi, cfg)
    k_idx = np.flatnonzero(trunc.k_mask)
    refit, _ = approx._extend(spec, k_idx, res.phi.flat[k_idx], cfg)
    tau = cfg.resolved_tau(spec)
    fresh = approx.sym_diff_measure(cloud, refit, tau, trunc.d1_mask)
    reused = approx.sym_diff_measure(
        cloud, refit, tau, trunc.d1_mask, known=(res.phi, trunc.symdiff)
    )
    for key, want in vars(fresh).items():
        np.testing.assert_array_equal(getattr(reused, key), want, err_msg=key)
    same = trunc.d1_mask & (refit.flat.view(np.int64) == res.phi.flat.view(np.int64))
    assert np.count_nonzero(same) >= k_idx.size > 0
    assert np.any(trunc.d1_mask & ~trunc.symdiff.cell_region) == (maximal_scale is not None)


# -------------------------------------------------------------- deposits


def test_heights_on_projection_graph_oracle(spec, cfg):
    eps = 0.1
    cloud = generators.linear_cloud(spec, eps)
    m0 = np.arange(len(cloud))
    idx, vals = approx.heights_on_projection(cloud, m0, spec)
    assert len(idx) == spec.size
    centers = spec.nodes()[idx]
    assert np.max(np.abs(vals - eps * centers[:, spec.n - 1])) < 1e-12


def test_heights_on_projection_single_and_median():
    spec = GridSpec.centered(2, 0.5, 0.25)
    w = np.array([[0.125, 0.125, 0.125, 0.125]])
    cloud = manual_cloud(w, [0.7], [2.0])
    idx, vals = approx.heights_on_projection(cloud, np.array([0]), spec)
    assert len(idx) == 1 and vals[0] == 0.7

    w2 = np.repeat(w, 3, axis=0)
    cloud2 = manual_cloud(w2, [0.0, 1.0, 1.0], [1.0, 1.0, 2.0])
    idx2, vals2 = approx.heights_on_projection(cloud2, np.arange(3), spec)
    # weighted median: half the mass (2.0) is reached at height 1.0
    assert len(idx2) == 1 and vals2[0] == 1.0
    cloud3 = manual_cloud(w2, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    _, vals3 = approx.heights_on_projection(cloud3, np.arange(3), spec)
    assert vals3[0] == 1.0


def heights_reference(cloud, m0, spec):
    """heights_on_projection with the weighted-median loop over every cell,
    singletons included, kept as the reference."""
    flat, inside = spec.locate(cloud.projections()[m0])
    flat, h, wt = flat[inside], cloud.heights[m0][inside], cloud.weights[m0][inside]
    order = np.lexsort((h, flat))
    flat, h, wt = flat[order], h[order], wt[order]
    cells, starts = np.unique(flat, return_index=True)
    values = np.empty(len(cells))
    bounds = np.append(starts, len(flat))
    for k in range(len(cells)):
        hs = h[bounds[k] : bounds[k + 1]]
        ws = wt[bounds[k] : bounds[k + 1]]
        tot = float(np.sum(ws))
        if tot == 0.0:
            values[k] = float(np.median(hs))
            continue
        j = int(np.searchsorted(np.cumsum(ws), 0.5 * tot))
        values[k] = hs[min(j, len(hs) - 1)]
    return cells, values


@pytest.mark.parametrize("seed", range(4))
def test_heights_on_projection_matches_loop_reference(seed):
    # singletons, duplicated cells, cells whose weights are all zero and
    # single samples of weight zero, some samples outside the grid
    rng = np.random.default_rng(seed)
    spec = GridSpec.centered(2, 0.5, 0.25)
    hit = rng.choice(rng.integers(0, spec.size, size=30), size=60)
    w = spec.nodes()[hit] + rng.uniform(-0.1, 0.1, size=(60, 4))
    w[:3] += 5.0
    weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=60)
    weights[hit == hit[5]] = 0.0
    cloud = manual_cloud(w, rng.normal(scale=0.1, size=60), weights)
    cells, values = approx.heights_on_projection(cloud, np.arange(60), spec)
    ref_cells, ref_values = heights_reference(cloud, np.arange(60), spec)
    per_cell = np.bincount(hit[3:])
    assert np.any(per_cell == 1) and np.any(per_cell > 1)
    np.testing.assert_array_equal(cells, ref_cells)
    np.testing.assert_array_equal(values, ref_values)


# -------------------------------------------------------------- pipeline


def test_pipeline_flat(flat_result):
    cloud, res = flat_result
    assert not res.degenerate
    assert len(res.m0) == len(cloud)
    assert res.sup_abs == 0.0
    assert res.lip_estimate == 0.0
    assert res.l2_gradient == 0.0
    assert res.symdiff.total == 0.0
    assert res.m0_matched


def test_pipeline_eps_graph(spec, cfg, eps_result):
    cloud, res = eps_result
    eps = 0.05
    assert len(res.m0) == len(cloud)
    exact = eps * spec.nodes()[:, spec.n - 1]
    err = np.max(np.abs(res.phi.flat - exact)[disk_mask(spec, 1.0)])
    assert err <= 2.0 * spec.h
    assert err < 1e-12  # stride-1 deposits land on cell centers exactly
    assert res.symdiff.total == 0.0
    assert math.isclose(res.lip_estimate, eps, rel_tol=1e-9)
    target = eps**2 * KAPPA2
    assert abs(res.l2_gradient - target) <= 0.05 * target
    assert res.m0_matched


def test_pipeline_lip_cap(spec):
    f = GridFunction.constant(spec, 0.0)
    with pytest.raises(ValueError):
        approx.ApproxResult(
            phi=f,
            m0=np.array([0]),
            sup_abs=0.0,
            lip_estimate=1.5,
            fit_inputs=(generators.flat_cloud(spec), 0.5, disk_mask(spec, 1.0)),
        )


def test_pipeline_degenerate(spec, cfg):
    base = generators.flat_cloud(spec)
    nrm = base.normals.copy()
    nrm[:, 0] = -1.0
    cloud = surface.BoundaryCloud(2, base.points, nrm, base.weights)
    res = approx.lipschitz_approximation(cloud, spec, cfg)
    assert res.degenerate
    assert len(res.m0) == 0
    assert res.sup_abs == 0.0


def test_extend_computes_cone_ratio_once(spec, monkeypatch):
    calls, exact = [], graph._cone_ratio

    def counted(nodes, vals):
        calls.append(len(vals))
        return exact(nodes, vals)

    monkeypatch.setattr(approx, "_cone_ratio", counted)
    monkeypatch.setattr(graph, "_cone_ratio", counted)
    base = GridFunction.from_callable(spec, lambda w: 0.03 * w[:, 1])
    cells = np.arange(0, spec.size, 3)
    for policy in ("measured", "fixed"):
        calls.clear()
        approx._extend(spec, cells, base.flat[cells], PipelineConfig(extension_policy=policy))
        assert calls == [cells.size], policy


def test_pipeline_cluster_sweep(spec, cfg):
    # symmetric difference tracks the injected mass; its ratio against
    # the outer-scale excess is scale-free across cluster sizes
    ratios = []
    prev = 0.0
    for mass in (2**-3, 2**-2, 2**-1):
        cloud = generators.corrupted_cluster_cloud(spec, mass, displacement=1.0)
        res = approx.lipschitz_approximation(cloud, spec, cfg)
        injected = cloud.meta["cluster_mass"]
        sd = res.symdiff.total
        assert sd <= 3.0 * injected
        assert sd >= prev  # monotone in the injected mass
        prev = sd
        e = excess_cloud(cloud, None, cfg.outer_scale, cfg.orientation).excess
        ratios.append(sd / e)
        assert res.lip_estimate <= 1.0
    assert max(ratios) <= 3.0 * min(ratios)


# ------------------------------------------------- symmetric difference


def test_symdiff_exact_graph_zero_and_tau_monotone(spec, cfg, eps_result):
    cloud, res = eps_result
    assert res.symdiff.total == 0.0
    corrupted = generators.corrupted_cluster_cloud(spec, 2**-3, displacement=1.0)
    f = GridFunction.constant(spec, 0.0)
    totals = [
        approx.sym_diff_measure(corrupted, f, tau, disk_mask(spec, 1.0)).total
        for tau in (0.25, 0.5, 0.75, 1.2)
    ]
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_symdiff_deleted_patch(spec):
    eps, radius, tau = 0.1, 0.8, 0.125
    cloud = generators.deleted_patch_cloud(spec, radius, eps=eps)
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    sym = approx.sym_diff_measure(cloud, f, tau, disk_mask(spec, 1.0))
    assert sym.cloud_mass == 0.0
    deleted = cloud.meta["deleted_mass"]
    # cells within tau of the surviving rim stay matched, so the measured
    # mass is the area formula on a patch eroded by roughly tau
    assert 0.3 * deleted <= sym.graph_mass <= deleted * (1.0 + 1e-12)
    finer = approx.sym_diff_measure(cloud, f, 0.0625, disk_mask(spec, 1.0))
    assert finer.graph_mass >= sym.graph_mass
    assert sym.spherical == pytest.approx(sym.total / core.constants(2)[1])


# ---------------------------------------------------------- defect measure


def disk_mu(cloud, f, tau):
    """build_mu on the match of cloud and f over the unit disk."""
    sym = approx.sym_diff_measure(cloud, f, tau, disk_mask(f.spec, 1.0))
    return approx.build_mu(cloud, f, sym, 1)


def test_build_mu_flat_zero(spec, cfg, flat_result):
    cloud, res = flat_result
    mu = disk_mu(cloud, res.phi, cfg.resolved_tau(spec))
    assert mu.total() == 0.0


def test_build_mu_eps_density(spec, cfg):
    eps = 0.1
    cloud = generators.linear_cloud(spec, eps)
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    mu = disk_mu(cloud, f, cfg.resolved_tau(spec))
    density = 2.0 * (math.sqrt(1.0 + eps**2) - 1.0) * spec.cell_volume
    cells = mu.masses.ravel()
    d1 = disk_mask(spec, 1.0)  # the measure lives on the region
    assert np.max(np.abs(cells[d1] - density)) < 1e-14
    assert np.all(cells[~d1] == 0.0)
    assert math.isclose(mu.total(), density * np.count_nonzero(d1), rel_tol=1e-12)


def test_build_mu_patch_term_ratio(spec, cfg):
    eps, radius, tau = 0.3, 0.8, 0.125
    full = generators.linear_cloud(spec, eps)
    holed = generators.deleted_patch_cloud(spec, radius, eps=eps)
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    region = disk_mask(spec, 1.0)
    mu_full = disk_mu(full, f, tau)
    mu_holed = disk_mu(holed, f, tau)
    sym = approx.sym_diff_measure(holed, f, tau, region=region)
    hole = ~sym.cell_matched & region
    assert np.count_nonzero(hole) > 50
    g2 = eps**2
    expected = (g2 / math.sqrt(1.0 + g2)) / (2.0 * (math.sqrt(1.0 + g2) - 1.0))
    got = mu_holed.masses.ravel()[hole] / mu_full.masses.ravel()[hole]
    assert np.max(np.abs(got - expected)) < 1e-9


# ------------------------------------------------------------ truncation


def test_truncate_flat_trivial(spec, cfg, flat_result):
    cloud, res = flat_result
    tr = approx.truncate(cloud, res.phi, cfg)
    assert tr.trivial
    assert np.array_equal(tr.k_mask, tr.d1_mask)
    assert tr.outside_measure == 0.0
    assert tr.lip_on_k == 0.0
    assert tr.lip_certified == 0.0
    assert tr.coincidence_ok


def test_truncate_tilted_cluster_band(spec, cfg):
    # clusters displaced below the match threshold stay matched but carry
    # flipped normals, so the defect measure carves them out of K
    ratios, outs = [], []
    for mass in (2**-3, 2**-2, 2**-1):
        cloud = generators.corrupted_cluster_cloud(spec, mass, displacement=0.3)
        res = approx.lipschitz_approximation(cloud, spec, cfg)
        tr = approx.truncate(cloud, res.phi, cfg)
        assert not tr.trivial
        assert tr.eta == pytest.approx(tr.excess_outer**0.5)
        assert np.all(tr.d1_mask[tr.k_mask])
        assert tr.outside_measure > 0.0
        assert tr.coincidence_ok
        outs.append(tr.outside_measure)
        ratios.append(tr.outside_measure / tr.excess_outer**0.5)
    assert all(a <= b for a, b in zip(outs, outs[1:]))  # monotone in mass
    assert max(ratios) <= 3.0 * min(ratios)


def test_truncate_eps_sweep_certified_slope(spec, cfg):
    # the certified bound on K takes the form C * e^alpha with one
    # empirical constant for the family; its log-log slope against e is
    # alpha, and the sampled Lipschitz constant stays below it.  A clean
    # slope-eps graph has scan-scale excess near 4.2 eps^2, so the sweep
    # needs the selection threshold opened up to keep eps = 1/4 admissible
    sweep_cfg = PipelineConfig(delta1=0.5)
    es, lips, thetas = [], [], []
    for eps in (2**-4, 2**-3, 2**-2):
        cloud = generators.linear_cloud(spec, eps)
        res = approx.lipschitz_approximation(cloud, spec, sweep_cfg)
        assert not res.degenerate
        tr = approx.truncate(cloud, res.phi, sweep_cfg)
        assert tr.outside_measure == 0.0  # clean graphs keep all of D_1
        assert math.isclose(tr.lip_on_k, eps, rel_tol=1e-6)
        es.append(tr.excess_outer)
        lips.append(tr.lip_on_k)
        thetas.append(tr.theta)
    c_hat = max(l / t for l, t in zip(lips, thetas))
    assert all(l <= c_hat * t * (1 + 1e-12) for l, t in zip(lips, thetas))
    slope = np.polyfit(np.log(es), np.log([c_hat * t for t in thetas]), 1)[0]
    assert 0.2 <= slope <= 0.3
    spread = max(l / t for l, t in zip(lips, thetas)) / min(l / t for l, t in zip(lips, thetas))
    assert spread <= 3.0  # the empirical constant is stable on the sweep


# ------------------------------------------------------------ bv estimate


def test_check_bv_constant_and_linear(spec):
    flat = GridFunction.constant(spec, 2.0)
    rep = approx.check_bv(flat)
    assert rep["passed"] and rep["lhs"] == 0.0 and rep["rhs"] == 0.0

    eps = 0.1
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    rep = approx.check_bv(f)
    # Cauchy-Schwarz is tight for a constant gradient
    assert rep["passed"]
    assert math.isclose(rep["lhs"], rep["rhs"], rel_tol=1e-9)
    area = spec.size * spec.cell_volume
    assert math.isclose(rep["lhs"], (eps * area) ** 2, rel_tol=1e-9)


def test_check_bv_random_fields():
    spec = GridSpec.centered(2, 0.5, 0.1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=3) * 0.3
        k = rng.integers(1, 4, size=(3, 4))
        phase = rng.random(3) * 2 * np.pi

        def field(w, a=a, k=k, phase=phase):
            return sum(a[j] * np.sin(w @ k[j] + phase[j]) for j in range(3))

        rep = approx.check_bv(GridFunction.from_callable(spec, field))
        assert rep["passed"]
        assert rep["lhs"] <= rep["rhs"] * (1.0 + 1e-9)


# -------------------------------------------------------------- sandwiches


def test_check_sandwich_flat_exact():
    spec = GridSpec.centered(2, 0.5, 0.1)
    f = GridFunction.constant(spec, 0.0)
    rep = approx.check_sandwich(f, np.zeros(4), 0.3, 0.5)
    assert rep["passed"] and rep["c_admissible"]
    assert rep["counts"]["inner"] < rep["counts"]["outer"]
    # with phi = 0 the graph balls coincide with disks of the same radius
    assert rep["counts"]["projection"] == rep["counts"]["outer"]


def test_check_sandwich_random_linear():
    spec = GridSpec.centered(2, 0.7, 0.1)
    eps = 0.05
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    rng = np.random.default_rng(11)
    nodes = spec.nodes()
    # the t-axis is staggered, so cell centers have box norm at least sqrt(h/2)
    pool = np.flatnonzero(core.box(nodes) < 0.3)
    for _ in range(100):
        x = nodes[rng.choice(pool)]
        r = float(rng.uniform(0.1, 0.25))
        rep = approx.check_sandwich(f, x, r, 0.4)
        assert rep["c_admissible"]
        assert rep["passed"], rep


def test_check_sandwich_inflated_c_flags():
    spec = GridSpec.centered(2, 0.5, 0.1)
    eps = 0.05
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    rep = approx.check_sandwich(f, np.zeros(4), 0.3, 1.3)
    assert not rep["c_admissible"]
    assert not rep["graph_ball_in_projection"]
    assert not rep["passed"]


def test_check_sandwich_given_estimate_matches_default():
    spec = GridSpec.centered(2, 0.7, 0.1)
    f = GridFunction.from_callable(spec, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] ** 2)
    lip = graph.lipschitz_estimate(f)
    nodes = spec.nodes()
    for k, r, C in ((0, 0.2, 0.4), (len(nodes) // 2, 0.15, 0.4), (len(nodes) // 3, 0.25, 1.3)):
        rep = approx.check_sandwich(f, nodes[k], r, C, lip=lip)
        assert rep == approx.check_sandwich(f, nodes[k], r, C)
        assert rep["lip_estimate"] == lip


# --------------------------------------------------------------- corollary


def test_corollary_flat(spec, cfg):
    cloud = generators.flat_cloud(spec)
    rec = approx.corollary_report(cloud, spec, cfg)
    assert not rec["degenerate"]
    assert rec["empirical"]
    for q in rec["quantities"].values():
        assert q["value"] == 0.0
        assert q["ratio"] == 0.0


def test_corollary_eps_ratio_stability(spec, cfg):
    # the re-extension cone stays proportional to the data slope only up
    # to about 0.07; beyond it the rim of the refit dominates l2, so the
    # proportionality sweep probes the small-slope regime
    ratios = []
    for eps in (2**-6, 2**-5, 2**-4):
        cloud = generators.linear_cloud(spec, eps)
        rec = approx.corollary_report(cloud, spec, cfg)
        assert not rec["degenerate"]
        ratios.append(rec["quantities"]["l2_gradient"]["ratio"])
    assert max(ratios) <= 1.25 * min(ratios)


def check_sandwich_reference(f, x, r, C):
    """check_sandwich with one phi_ball call per radius, kept as the reference."""
    spec = f.spec
    x = np.asarray(x, dtype=float)
    lip = graph.lipschitz_estimate(f)
    inner, exits_inner = graph.phi_ball(f, x, C * r)
    outer, exits_outer = graph.phi_ball(f, x, r)
    r_slack = r * (1.0 + 0.5 * lip) + 1e-12
    outer_slack = outer if lip == 0.0 else graph.phi_ball(f, x, r_slack)[0]
    px = core.graph_points(x[None, :], f.interp(x[None, :]))[0]
    ball_proj = core.dinf(px, f.graph()) < r
    sup_h = float(np.max(np.abs(f.flat)))
    R = r + 2.0 * math.sqrt(sup_h) * math.sqrt(r)
    nodes = spec.nodes()
    disk_r = core.w_dinf(x, nodes) < r
    disk_big = core.w_dinf(x, nodes) < R
    graph_ball_big, _ = graph.phi_ball(f, x, R)
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
        "ball_exits_grid": bool(exits_inner or exits_outer),
        "counts": {
            "inner": int(np.count_nonzero(inner)),
            "projection": int(np.count_nonzero(ball_proj)),
            "outer": int(np.count_nonzero(outer)),
        },
    }


SANDWICH_SPEC = GridSpec.centered(2, 0.5, 0.125)


@given(
    st.sampled_from((0.0, 0.05, 0.3)),
    st.floats(-0.2, 0.2),
    st.lists(st.floats(-0.43, 0.43), min_size=4, max_size=4),
    st.booleans(),
    st.floats(0.02, 0.9),
    st.floats(0.1, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_check_sandwich_matches_phi_ball_reference(eps, bend, x, on_node, r, C):
    # eps = 0, bend = 0 is the flat graph, where the slack ball is the outer one
    f = GridFunction.from_callable(
        SANDWICH_SPEC, lambda w: eps * w[:, 1] + bend * w[:, 0] * w[:, 2]
    )
    x = np.asarray(x)
    if on_node:
        x = SANDWICH_SPEC.nodes()[SANDWICH_SPEC.locate(x)[0][0]]
    assert approx.check_sandwich(f, x, r, C) == check_sandwich_reference(f, x, r, C)


# ------------------------------------------------------ phi lemma path


def test_truncate_reports_phi_lemma_path(spec, cfg, flat_result, monkeypatch, caplog):
    cloud, res = flat_result
    assert approx.truncate(cloud, res.phi, cfg).phi_lemma_path == "none"

    cloud = generators.corrupted_cluster_cloud(spec, 2**-2, displacement=0.3)
    res = approx.lipschitz_approximation(cloud, spec, cfg)

    def estimate(fails):
        def constants(f):
            if fails:
                raise maximal.PhiLemmaError("every sampled ball left the grid")
            return 1.25
        return constants

    def lemma(fails, seen):
        def check(f, s, theta, *, c_hat_l, **kw):
            seen.append(c_hat_l)
            if fails:
                raise maximal.PhiLemmaError("no pairs available off the superlevel set")
            return {"ratio": 0.5}
        return check

    caplog.set_level(logging.INFO, logger="hlip.approx")
    for (estimate_fails, lemma_fails), path in [
        ((False, False), "estimated"), ((True, False), "pinned"),
        ((True, True), "none"), ((False, True), "none"),
    ]:
        caplog.clear()
        seen = []
        monkeypatch.setattr(maximal, "estimate_ball_constants", estimate(estimate_fails))
        monkeypatch.setattr(approx, "check_phi_lemma", lemma(lemma_fails, seen))
        tr = approx.truncate(cloud, res.phi, cfg)
        assert not tr.trivial
        assert tr.phi_lemma_path == path
        assert tr.lip_certified == (math.inf if lemma_fails else 0.5 * tr.theta)
        assert seen == [1.0 if estimate_fails else 1.25]
        logged = [r.getMessage() for r in caplog.records if r.name == "hlip.approx"]
        assert any("pinned to 1" in m for m in logged) == estimate_fails


def test_truncate_runs_one_phi_lemma_certificate(cfg, monkeypatch):
    # on the h = 0.3 pipeline cloud every c_L ball leaves the grid: the
    # estimate fails once and the certificate runs once, with c_L pinned
    spec = generators.default_grid(2, 0.3)
    cloud = generators.corrupted_cluster_cloud(spec, 0.02, eps=0.05, displacement=0.3)
    res = approx.lipschitz_approximation(cloud, spec, cfg)
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(maximal, "estimate_ball_constants")
    counted(approx, "check_phi_lemma")
    tr = approx.truncate(cloud, res.phi, cfg)
    assert sorted(calls) == ["check_phi_lemma", "estimate_ball_constants"]
    assert tr.phi_lemma_path == "pinned" and math.isfinite(tr.lip_certified)


def test_truncate_lets_other_value_errors_propagate(spec, cfg, monkeypatch):
    # only the lemma's own failure becomes a pinned or missing certificate;
    # any other ValueError inside it is a fault and must surface
    cloud = generators.corrupted_cluster_cloud(spec, 2**-2, displacement=0.3)
    res = approx.lipschitz_approximation(cloud, spec, cfg)

    def broken(*args, **kwargs):
        raise ValueError("a fault inside the lemma")

    monkeypatch.setattr(maximal, "phi_maximal", broken)
    with pytest.raises(ValueError, match="a fault inside the lemma"):
        approx.truncate(cloud, res.phi, cfg)
