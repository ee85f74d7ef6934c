"""Maximal operators against brute-force oracles and the covering lemmas."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlip import core, generators, graph, maximal
from hlip.graph import GridFunction, GridSpec, phi_ball

KAPPA2 = core.constants(2)[0]


@pytest.fixture(scope="module")
def spec():
    return GridSpec.centered(2, 0.5, 0.1)


def sparse_measure(spec, seed, atoms=5, total=0.01):
    rng = np.random.default_rng(seed)
    masses = np.zeros(spec.size)
    idx = rng.choice(spec.size, size=atoms, replace=False)
    w = rng.random(atoms)
    masses[idx] = total * w / w.sum()
    return maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))


def test_measure_validation_and_helpers(spec):
    with pytest.raises(ValueError):
        maximal.DiscreteMeasure(spec, -np.ones(spec.counts))
    with pytest.raises(ValueError):
        maximal.DiscreteMeasure(spec, np.ones(7))
    with pytest.raises(ValueError):  # one entry per cell, but flat
        maximal.DiscreteMeasure(spec, np.ones(spec.size))
    mu = maximal.DiscreteMeasure(spec, np.full(spec.counts, 2.0 * spec.cell_volume))
    assert mu.masses.shape == spec.counts
    assert math.isclose(mu.total(), 2.0 * spec.size * spec.cell_volume, rel_tol=1e-12)


def test_deposits_land_in_cells(spec):
    pts = spec.nodes()[[10, 10, 77]]
    flat, inside = spec.locate(np.vstack([pts, [[9.0, 0, 0, 0]]]))
    assert inside.tolist() == [True, True, True, False]
    masses = np.zeros(spec.size)
    np.add.at(masses, flat[inside], np.array([1.0, 2.0, 4.0]))
    mu = maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))
    assert mu.flat[10] == 3.0 and mu.flat[77] == 4.0
    assert mu.total() == 7.0
    # group-translated ball membership
    assert np.sum(mu.flat[core.w_dinf(pts[0], spec.nodes()) < 2 * spec.h]) >= 3.0


def test_radius_ladder():
    rungs = maximal.radius_ladder(0.1, 1.0)
    assert rungs[0] == 0.1
    assert np.allclose(np.diff(np.log(rungs)), math.log(maximal.LADDER_RATIO))
    assert rungs[-1] < 1.0 <= rungs[-1] * maximal.LADDER_RATIO
    assert maximal.radius_ladder(0.5, 0.4).size == 0
    with pytest.raises(ValueError):
        maximal.radius_ladder(0.0, 1.0)


def _ref_ladder_masses(dist, masses, rungs):
    # the np.add.at ladder the bincount form replaced
    nc, nr = dist.shape[0], len(rungs)
    first = np.searchsorted(rungs, dist.ravel(), side="right").reshape(dist.shape)
    acc = np.zeros((nc, nr + 1))
    np.add.at(acc, (np.repeat(np.arange(nc), dist.shape[1]), first.ravel()),
              np.broadcast_to(masses, dist.shape).ravel())
    return np.cumsum(acc[:, :nr], axis=1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), nc=st.integers(1, 12), ns=st.integers(1, 300))
def test_bincount_ladder_matches_add_at(seed, nc, ns):
    rng = np.random.default_rng(seed)
    rungs = maximal.radius_ladder(0.05, 1.5)
    dist = rng.uniform(0.0, 2.0, size=(nc, ns))
    # points exactly on a rung sit outside it (strict membership)
    dist.ravel()[:: 7] = rng.choice(rungs, size=dist.ravel()[:: 7].size)
    masses = rng.exponential(1e-3, size=ns)
    # the rung-major table of the (support, centres) plane, as a transposed
    # view (a plane computed along its support) and C-ordered
    for plane in (dist.T, np.ascontiguousarray(dist.T)):
        bins = maximal._ladder_bins(plane, rungs)
        np.testing.assert_array_equal(
            maximal._ladder_masses(bins, rungs.size, masses[:, None]),
            _ref_ladder_masses(dist, masses, rungs).T,
        )
        np.testing.assert_array_equal(
            maximal._ladder_masses(bins, rungs.size), _ref_ladder_masses(dist, np.ones(ns), rungs).T
        )


def test_maximal_fields_independent_of_block_size(spec, monkeypatch):
    mu = sparse_measure(spec, 11, atoms=40)
    f = GridFunction.from_callable(spec, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] ** 2)
    centers = np.arange(0, spec.size, 37)

    def fields():
        disk = maximal.disk_maximal(mu, 0.5, centers=centers)
        phi = maximal.phi_maximal(
            f, maximal.measure_from_gradient(f), 0.1, c_hat_l=1.0, centers=centers
        )
        return disk, phi

    default = fields()
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1)  # one center per block
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        for a, b in zip(default, fields()):
            np.testing.assert_array_equal(a, b)


def _one_block_then_single_rows(monkeypatch, run):
    """run() on one block, then its results on 1-row blocks with 1 and 2 workers."""
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 40)
    whole = run()
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8)
    rows = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        rows.append(run())
    return whole, rows


def _ref_disk_maximal(mu, s, centers):
    # the full-ladder field every block's cut ladder must reproduce
    nodes, supp = mu.spec.nodes(), np.flatnonzero(mu.flat)
    rungs = maximal.radius_ladder(maximal.cell_diameter(mu.spec), 4 * s)
    dist = core.w_dinf(nodes[centers][:, None, :], nodes[supp][None, :, :])
    cum = _ref_ladder_masses(dist, mu.flat[supp], rungs)
    admissible = rungs[None, :] < 4 * s - core.box(nodes[centers])[:, None]
    ratios = np.where(admissible, cum / (KAPPA2 * rungs**5), 0.0)
    return np.max(ratios, axis=1, initial=0.0)


# atoms, scale and the centres' rule: a centre at exactly a rung's distance
# from the atom, every atom inside every centre's first rung, and an atom
# past the last rung of far centres (the overflow bin)
RUNG_CASES = {
    "atom_on_rung": ([4644], 0.5, "all"),
    "inside_first_rung": ([4644, 5644], 0.5, "near"),
    "beyond_last_rung": ([4644, 4655, 5544], 0.2, "all"),
}


@pytest.mark.parametrize("case", sorted(RUNG_CASES))
def test_disk_maximal_on_single_rows_matches_one_block(spec, monkeypatch, case):
    atoms, s, which = RUNG_CASES[case]
    nodes = spec.nodes()
    masses = np.zeros(spec.size)
    masses[atoms] = np.linspace(1e-3, 2e-3, len(atoms))
    mu = maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))
    rungs = maximal.radius_ladder(maximal.cell_diameter(spec), 4 * s)
    dist = np.max(core.w_dinf(nodes[:, None, :], nodes[atoms][None, :, :]), axis=1)
    centers = np.arange(spec.size) if which == "all" else np.flatnonzero(dist < rungs[0])
    d = dist[centers]
    if case == "atom_on_rung":
        assert np.isin(d, rungs).any()
    elif case == "inside_first_rung":
        assert centers.size >= 2 and d.max() < rungs[0]
    else:
        assert d.max() >= rungs[-1]
    assert len(atoms) < rungs.size  # the ladder, not the support, sets the block width
    whole, rows = _one_block_then_single_rows(
        monkeypatch, lambda: maximal.disk_maximal(mu, s, centers=centers)
    )
    np.testing.assert_array_equal(whole[centers], _ref_disk_maximal(mu, s, centers))
    assert whole[centers].max() > 0
    for got in rows:
        np.testing.assert_array_equal(got, whole)


def pair_layouts(monkeypatch):
    """A set that gains the layout of every w_dinf plane from now on: "long"
    for w_dinf(x[None], pts[:, None]), centres along the plane's rows, and
    "wide" for w_dinf(x[:, None], pts[None]), support along them."""
    seen, w_dinf = set(), core.w_dinf

    def recorded(a, b, planes=None):
        if a.shape[1] * b.shape[0] > 1:
            seen.add("long")
        elif a.shape[0] * b.shape[1] > 1:
            seen.add("wide")
        return w_dinf(a, b, planes=planes)

    monkeypatch.setattr(core, "w_dinf", recorded)
    return seen


# atoms and centres: more centres than support columns in the one block,
# and fewer; 1-row blocks hold one centre against every atom
PAIR_LAYOUT_CASES = {"long": (3, np.arange(0, 10_000, 7)), "wide": (40, np.arange(0, 10_000, 397))}


@pytest.mark.parametrize("case", sorted(PAIR_LAYOUT_CASES))
def test_disk_maximal_pair_layouts_match_the_reference(spec, monkeypatch, case):
    atoms, centers = PAIR_LAYOUT_CASES[case]
    mu = sparse_measure(spec, 5, atoms=atoms)
    assert (centers.size > atoms) == (case == "long")
    want = _ref_disk_maximal(mu, 0.5, centers)
    assert want.max() > 0
    layouts = pair_layouts(monkeypatch)
    whole, rows = _one_block_then_single_rows(
        monkeypatch, lambda: maximal.disk_maximal(mu, 0.5, centers=centers)
    )
    assert layouts == {case, "wide"}  # the one block's, then the single rows'
    for got in (whole, *rows):
        np.testing.assert_array_equal(got[centers], want)


def test_phi_maximal_on_single_rows_matches_one_block(spec, monkeypatch):
    f = GridFunction.from_callable(spec, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] ** 2)
    mu_phi = maximal.measure_from_gradient(f)
    centers = np.arange(0, spec.size, 397)
    whole, rows = _one_block_then_single_rows(
        monkeypatch,
        lambda: maximal.phi_maximal(f, mu_phi, 0.1, c_hat_l=1.0, centers=centers),
    )
    assert whole[centers].max() > 0
    for got in rows:
        np.testing.assert_array_equal(got, whole)


@st.composite
def disk_cutoff_cases(draw):
    """A measure supported in D_{4s} on a small n = 2 or 3 grid, sparse or
    dense, with some centres, a threshold and the block layout to run."""
    n = draw(st.sampled_from((2, 3)))
    spec = GridSpec.centered(2, 1.2, 0.3) if n == 2 else GridSpec.centered(3, 0.6, 0.3)
    s = draw(st.sampled_from((0.3, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = np.flatnonzero(core.box(spec.nodes()) < 4 * s)
    masses = np.zeros(spec.size)
    if draw(st.booleans()):  # sparse: a few atoms
        masses[rng.choice(inside, size=min(5, inside.size), replace=False)] = rng.random(5)[: min(5, inside.size)]
    else:  # dense: every node of D_{4s}
        masses[inside] = rng.random(inside.size)
    masses *= draw(st.sampled_from((1e-4, 1e-2, 1.0))) * spec.cell_volume
    centers = np.sort(rng.choice(spec.size, size=min(200, spec.size), replace=False))
    thr = draw(st.just("reach") | st.sampled_from(("value", 0.0, -1.0, math.nan, 1e-300, 1e300, math.inf)))
    q = draw(st.floats(0.0, 1.0))
    if thr == "reach":  # a cutoff R* inside the grid, so the column filter drops some
        low, high = maximal.cell_diameter(spec), (spec.counts[0] - 1) * spec.h
        r = low + q * (high - low)
        thr = float(np.sum(masses)) / (core.constants(n)[0] * r ** (2 * n + 1)) if masses.any() else 1.0
    return maximal.DiscreteMeasure(spec, masses.reshape(spec.counts)), s, centers, thr, q, draw(st.booleans()), draw(st.sampled_from((1, 2)))


@given(disk_cutoff_cases())
@settings(max_examples=60, deadline=None)
def test_disk_maximal_cut_at_its_threshold_matches_the_full_ladder(case):
    # above the threshold the values of the full ladder, bit for bit, and
    # the same superlevel set; elsewhere values in [0, thr].  A threshold
    # that is not positive and finite runs the full ladder.  Thresholds
    # whose cutoff lies inside the grid drop rungs and support columns
    mu, s, centers, thr, q, one_row, workers = case
    full = maximal.disk_maximal(mu, s, centers=centers)
    if thr == "value":  # a level among the field's own values
        thr = float(np.quantile(full[centers], q))
    with pytest.MonkeyPatch.context() as mp:
        if one_row:
            mp.setattr(core, "_BLOCK_BYTES", 8)
        mp.setattr(core, "_WORKERS", workers)
        cut = maximal.disk_maximal(mu, s, centers=centers, _exact_above=thr)
    if not 0 < thr < math.inf:
        np.testing.assert_array_equal(cut, full)
        return
    above = full > thr
    np.testing.assert_array_equal(cut > thr, above)
    np.testing.assert_array_equal(cut[above], full[above])
    assert np.all((cut[~above] >= 0.0) & (cut[~above] <= thr))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("loop", ["disk_maximal", "cone_ratio"])
def test_block_loops_stay_within_the_arena_bound(spec, monkeypatch, workers, loop):
    # the traced peak of a block loop is its workers' arenas (the kernel's
    # planes of _BLOCK_BYTES each), plus per worker two planes' worth for
    # the searchsorted and bincount outputs (the ladder bins and tables) or
    # the cone ratio's bool masks, plus 1 MiB for the arrays the call holds
    # whole (nodes, values, graph points)
    monkeypatch.setattr(core, "_WORKERS", workers)
    if loop == "disk_maximal":
        masses = np.zeros(spec.size)
        masses[[4644, 5644, 4655]] = [1e-3, 2e-3, 5e-4]
        mu = maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))
        run, planes = lambda: maximal.disk_maximal(mu, 5.0), 3
    else:
        nodes = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 4))
        run, planes = lambda: graph._cone_ratio(nodes, 0.05 * nodes[:, 1]), 4
    bound = workers * (planes + 2) * core._BLOCK_BYTES + (1 << 20)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_zero_measure_gives_zero_field(spec):
    mu = maximal.DiscreteMeasure(spec, np.zeros(spec.counts))
    fld = maximal.disk_maximal(mu, 0.5)
    assert np.all(fld == 0)
    with pytest.raises(ValueError):
        maximal.disk_maximal(mu, 0.0)


def test_support_precondition(spec):
    mu = maximal.DiscreteMeasure(spec, np.full(spec.counts, spec.cell_volume))
    with pytest.raises(ValueError):
        maximal.disk_maximal(mu, 0.12)  # grid corners lie outside D_{0.48}


def test_single_atom_matches_bruteforce_ladder(spec):
    s = 0.5
    nodes = spec.nodes()
    atom = int(np.ravel_multi_index((5, 4, 6, 5), spec.counts))
    mass = 7e-3
    masses = np.zeros(spec.size)
    masses[atom] = mass
    fld = maximal.disk_maximal(maximal.DiscreteMeasure(spec, masses.reshape(spec.counts)), s)
    rng = np.random.default_rng(1)
    for ci in rng.choice(spec.size, size=40, replace=False):
        d = core.w_dinf(nodes[ci], nodes[atom])
        cap = 4 * s - core.box(nodes[ci])
        best = 0.0
        for r in maximal.radius_ladder(maximal.cell_diameter(spec), 4 * s):
            if r < cap and d < r:
                best = max(best, mass / (KAPPA2 * r**5))
        assert math.isclose(fld[ci], best, rel_tol=1e-12, abs_tol=1e-15)


def test_lebesgue_density_bounded_by_one(spec):
    # s large enough that central cells admit rungs above the cell
    # diameter sqrt(h) despite the t-staggered centers
    s = 0.2
    support = core.box(spec.nodes()) < 4 * s - 1e-9
    mu = maximal.DiscreteMeasure(
        spec, (support * spec.cell_volume).reshape(spec.counts)
    )
    fld = maximal.disk_maximal(mu, s)
    # cell counting overshoots the continuum bound by up to the t-slab
    # quantization, about 15% at h = 0.1 for rungs near 0.5
    assert np.max(fld) <= 1.2
    assert np.max(fld) > 0.5


def test_maximal_monotone_in_measure(spec):
    mu = sparse_measure(spec, 3)
    bigger = maximal.DiscreteMeasure(spec, mu.masses + sparse_measure(spec, 4).masses)
    a = maximal.disk_maximal(mu, 0.5)
    b = maximal.disk_maximal(bigger, 0.5)
    assert np.all(a <= b + 1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_maximal_monotonicity_property(seed):
    small = GridSpec.centered(2, 0.3, 0.15)
    mu = sparse_measure(small, seed, atoms=3)
    nu = sparse_measure(small, seed + 1, atoms=2)
    both = maximal.DiscreteMeasure(small, mu.masses + nu.masses)
    a = maximal.disk_maximal(mu, 0.4)
    b = maximal.disk_maximal(both, 0.4)
    assert np.all(a <= b + 1e-15)


def test_disk_lemma_single_atom_bruteforce(spec):
    # s = 5 makes the smallness hypothesis exactly total <= theta * kappa
    s, r = 5.0, 0.5
    mass = 4e-3
    masses = np.zeros(spec.size)
    atom = spec.size // 2 + 3
    masses[atom] = mass
    mu = maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))
    theta = 1.2 * mass / KAPPA2
    rep = maximal.check_disk_lemma(mu, s, theta, r)
    assert rep.hypothesis_ok and rep.passed
    assert rep.lhs > 0  # superlevel set is nonempty at this theta

    fld = maximal.disk_maximal(mu, s)
    box = core.box(spec.nodes())
    lhs = np.count_nonzero((fld > theta) & (box < r)) * spec.cell_volume
    small = fld > theta / 2**5
    rhs = 5**5 / theta * float(np.sum(mu.flat[small & (box < r + 1.0)]))
    assert math.isclose(rep.lhs, lhs, rel_tol=1e-12)
    assert math.isclose(rep.rhs, rhs, rel_tol=1e-12)


def test_disk_lemma_randomized_suite(spec):
    s, r = 5.0, 0.6
    nonvacuous = 0
    for seed in range(50):
        mu = sparse_measure(spec, seed, atoms=1 + seed % 6, total=0.002 + 1e-4 * seed)
        rng = np.random.default_rng(seed + 999)
        theta = mu.total() / KAPPA2 * rng.uniform(1.05, 3.0)
        rep = maximal.check_disk_lemma(mu, s, theta, r)
        assert rep.hypothesis_ok
        assert rep.passed, rep
        nonvacuous += rep.lhs > 0
    assert nonvacuous > 10


def test_disk_lemma_hypothesis_failure_reported(spec):
    mu = sparse_measure(spec, 2, total=1.0)
    rep = maximal.check_disk_lemma(mu, 5.0, theta=1e-4, r=0.5)
    assert not rep.hypothesis_ok
    assert not rep.passed
    with pytest.raises(ValueError):
        maximal.check_disk_lemma(mu, 1.0, theta=1.0, r=3.5)


def test_vitali_single_and_nested():
    sel, asg = maximal.vitali_5r(np.zeros((1, 4)), np.array([0.3]))
    assert list(sel) == [0] and asg[0] == 0
    centers = np.zeros((3, 4))
    sel, asg = maximal.vitali_5r(centers, np.array([0.5, 1.0, 0.25]))
    assert list(sel) == [1]
    assert np.all(asg == 1)


def test_vitali_random_family_disjoint_and_covering():
    rng = np.random.default_rng(12)
    centers = rng.uniform(-1, 1, size=(100, 4))
    centers[:, 3] *= 0.5
    radii = rng.uniform(0.05, 0.6, size=100)
    sel, asg = maximal.vitali_5r(centers, radii)
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            i, j = sel[a], sel[b]
            assert core.w_dinf(centers[i], centers[j]) >= radii[i] + radii[j]
    for i in range(100):
        j = asg[i]
        assert j in sel
        assert core.w_dinf(centers[j], centers[i]) + radii[i] <= 5 * radii[j] + 1e-12
    with pytest.raises(ValueError):
        maximal.vitali_5r(centers, -radii)


def vitali_reference(centers, radii):
    """vitali_5r with one w_dinf row per candidate, kept as the reference."""
    order = np.argsort(-radii, kind="stable")
    selected = []
    assignment = np.full(len(radii), -1, dtype=int)
    for i in order:
        if selected:
            d = core.w_dinf(centers[i], centers[selected])
            hit = d < radii[i] + radii[selected]
            if np.any(hit):
                assignment[i] = selected[int(np.argmax(hit))]
                continue
        selected.append(int(i))
        assignment[i] = i
    return np.asarray(selected, dtype=int), assignment


@st.composite
def vitali_families(draw):
    """1-80 balls whose centres and radii come from small pools, so centres
    coincide and radii repeat (ties in the greedy order)."""
    m = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, m)), 4))
    pool[:, 3] *= 0.5
    centers = pool[rng.integers(len(pool), size=m)]
    radii = rng.choice(rng.uniform(0.05, 0.6, size=draw(st.integers(1, m))), size=m)
    return centers, radii


@given(vitali_families())
@settings(max_examples=80, deadline=None)
def test_vitali_matches_per_candidate_reference(family):
    centers, radii = family
    want = vitali_reference(centers, radii)
    # one block for the whole family, one row per block, and a few rows per block
    for budget in (core._BLOCK_BYTES, 8, 8 * 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", budget)
            got = maximal.vitali_5r(centers, radii)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_phi_maximal_flat_constant_is_zero(spec):
    f = GridFunction.constant(spec, 0.3)
    fld = maximal.phi_maximal(
        f, maximal.measure_from_gradient(f), 0.5, c_hat_l=estimated_c_l(f),
        centers=np.arange(0, spec.size, 7),
    )
    assert np.all(fld == 0)


def test_phi_maximal_linear_graph_is_slope(spec):
    eps = 0.05
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, 1])
    centers = np.arange(0, spec.size, 7)
    fld = maximal.phi_maximal(
        f, maximal.measure_from_gradient(f), 0.1, c_hat_l=estimated_c_l(f), centers=centers
    )
    vals = fld[centers]
    assert np.all(vals > 0)
    assert np.allclose(vals, eps, rtol=1e-9)


def test_phi_maximal_homogeneous_in_measure(spec):
    f = GridFunction.from_callable(spec, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0])
    mu = maximal.measure_from_gradient(f)
    centers = np.arange(0, spec.size, 97)
    c_l = estimated_c_l(f)
    a = maximal.phi_maximal(f, mu, 0.2, c_hat_l=c_l, centers=centers)
    tripled = maximal.DiscreteMeasure(spec, 3.0 * mu.masses)
    b = maximal.phi_maximal(f, tripled, 0.2, c_hat_l=c_l, centers=centers)
    assert np.allclose(b, 3.0 * a, rtol=1e-12)


def test_phi_maximal_rejects_steep_graphs(spec):
    # the slope check runs before c_L is read
    f = GridFunction.from_callable(spec, lambda w: 0.5 * w[:, 1])
    with pytest.raises(ValueError, match="steep"):
        maximal.phi_maximal(f, maximal.measure_from_gradient(f), 0.5, c_hat_l=1.0)
    # also where the density bound alone would decide the superlevel set
    with pytest.raises(maximal.PhiLemmaError, match="steep"):
        maximal.check_phi_lemma(
            f, s=0.45, theta=10.0 * largest_density(f), pair_budget=500, c_hat_l=1.0
        )


def test_phi_maximal_matches_disk_maximal_for_flat_graph(spec):
    # for phi = 0 the graph distance is d_inf and the two fields differ
    # only in normalization, counted cells against kappa r^{2n+1}; the
    # comparison is honest only while the rungs stay inside the grid,
    # so keep the atoms and the centers near the middle and s small
    f = GridFunction.constant(spec, 0.0)
    nodes = spec.nodes()
    box = core.box(nodes)
    masses = np.zeros(spec.size)
    atom_pool = np.flatnonzero(box < 0.3)
    rng = np.random.default_rng(21)
    masses[rng.choice(atom_pool, size=4, replace=False)] = 2.5e-3
    mu = maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))
    s = 0.2
    centers = np.flatnonzero(box < 0.3)
    disk = maximal.disk_maximal(mu, s, centers=centers)
    phi = maximal.phi_maximal(f, mu, s * 4.0 / 66.0, c_hat_l=1.0, centers=centers)
    d, p = disk[centers], phi[centers]
    ok = (d > 0) & (p > 0)
    assert np.count_nonzero(ok) > len(centers) // 2
    ratio = p[ok] / d[ok]
    assert np.all(ratio > 0.4) and np.all(ratio < 2.5)


def test_phi_lemma_bounded_constant_across_slopes(spec, monkeypatch):
    # hlip verify's three cases; the density bound decides each, so the
    # ladder never runs and the whole ball lies off the superlevel set
    ladders = count_ladder_loops(monkeypatch)
    ratios = []
    for eps in (1e-3, 1e-2, 1e-1):
        f = GridFunction.from_callable(spec, lambda w: eps * w[:, 1])
        rep = maximal.check_phi_lemma(
            f, s=0.45, theta=2 * eps, pair_budget=4000, seed=5, c_hat_l=estimated_c_l(f)
        )
        assert rep["off_level_cells"] == np.count_nonzero(phi_ball(f, np.zeros(4), 0.45)[0]) > 0
        ratios.append(rep["ratio"])
    assert ladders == []
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) < 1.5


def test_phi_lemma_constant_stable_under_refinement():
    # pin the quasi-ball constant: the h = 0.15 grid is too coarse to
    # host the estimation balls, and the flat-graph value is 1 anyway
    base = {}
    for h in (0.15, 0.1):
        g = GridSpec.centered(2, 0.45, h)
        f = GridFunction.from_callable(g, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 2])
        rep = maximal.check_phi_lemma(
            f, s=0.4, theta=0.2, pair_budget=4000, seed=6, c_hat_l=1.0
        )
        base[h] = rep["ratio"]
    assert abs(base[0.1] - base[0.15]) / base[0.15] < 0.2


def test_phi_lemma_flat_graph_zero(spec):
    f = GridFunction.constant(spec, 1.0)
    rep = maximal.check_phi_lemma(
        f, s=0.45, theta=0.5, pair_budget=2000, c_hat_l=estimated_c_l(f)
    )
    assert rep["ratio"] == 0.0


# --- the phi lemma's density bound against the full ladder -----------------


def phi_lemma_reference(f, **kw):
    """check_phi_lemma with phi_maximal's full ladder, kept as the reference:
    the threshold is dropped, so every field value is exact."""
    full = maximal.phi_maximal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "phi_maximal", lambda *a, _exact_above, **k: full(*a, **k))
        return ball_constants_outcome(maximal.check_phi_lemma, f, **kw)


def estimated_c_l(f):
    """The quasi-ball constant the lemma's callers pass, sampled from f."""
    return maximal.estimate_ball_constants(f)


def largest_density(f):
    return float(np.max(maximal.measure_from_gradient(f).flat)) / f.spec.cell_volume


def count_ladder_loops(monkeypatch):
    """A list that gains one entry per phi_maximal block loop run from now on."""
    calls, map_blocks = [], core._map_blocks

    def counted(fn, blocks):
        if fn.__qualname__ == "phi_maximal.<locals>.block":
            calls.append("phi_maximal")
        return map_blocks(fn, blocks)

    monkeypatch.setattr(core, "_map_blocks", counted)
    return calls


# 1,296 nodes: small enough to run the reference's ladder per example
LEMMA_GRID = GridSpec.centered(2, 0.45, 0.15)


@given(
    st.floats(-0.15, 0.15),
    st.floats(-0.1, 0.1),
    st.just(0.0) | st.floats(0.0, 0.03),
    st.sampled_from(("field", "largest", "above")),
    st.floats(0.0, 1.0),
    st.floats(0.3, 0.45),
    st.floats(1.0, 2.0),
    st.sampled_from((1, 2)),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_phi_lemma_matches_full_ladder_reference(
    a, b, wave, where, q, s, c_hat_l, workers, seed
):
    # linear graphs have uniform density; the sine makes it vary
    f = GridFunction.from_callable(
        LEMMA_GRID, lambda w: a * w[:, 1] + b * w[:, 0] + wave * np.sin(4 * w[:, 2] + w[:, 3])
    )
    top = largest_density(f)
    if where == "field":
        # below the largest density: the q-quantile of the field over the ball,
        # which phi_maximal computes only in the small-slope regime
        in_ball = phi_ball(f, np.zeros(4), s)[0]
        assume(np.count_nonzero(in_ball) >= 2)
        assume(graph.lipschitz_estimate(f) <= maximal._SMALL_SLOPE_LIP)
        mu = maximal.measure_from_gradient(f)
        full = maximal.phi_maximal(f, mu, s, c_hat_l=c_hat_l, centers=np.flatnonzero(in_ball))
        theta = float(np.quantile(full[in_ball], q))
    else:
        theta = top if where == "largest" else top * (1.0 + q)
    assume(theta > 0)
    kw = {"s": s, "theta": theta, "pair_budget": 500, "seed": seed, "c_hat_l": c_hat_l}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_WORKERS", workers)
        got = ball_constants_outcome(maximal.check_phi_lemma, f, **kw)
    assert got == phi_lemma_reference(f, **kw)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_phi_lemma_at_the_largest_density_runs_the_ladder(monkeypatch, eps, workers):
    # on a uniform density the ladder's ball means round above the largest
    # density, so a bound without its rounding margin would decide wrongly
    f = GridFunction.from_callable(LEMMA_GRID, lambda w: eps * w[:, 1])
    theta = largest_density(f)
    full = maximal.phi_maximal(f, maximal.measure_from_gradient(f), 0.45, c_hat_l=1.0)
    assert np.any(full > theta)
    kw = {"s": 0.45, "theta": theta, "pair_budget": 500, "c_hat_l": 1.0}
    monkeypatch.setattr(core, "_WORKERS", workers)
    ladders = count_ladder_loops(monkeypatch)
    assert ball_constants_outcome(maximal.check_phi_lemma, f, **kw) == phi_lemma_reference(f, **kw)
    assert len(ladders) == 2  # the change's call and the reference's


def test_phi_lemma_runs_the_ladder_between_mean_and_largest_density(monkeypatch):
    f = GridFunction.from_callable(
        LEMMA_GRID, lambda w: 0.05 * w[:, 1] + 0.02 * np.sin(4 * w[:, 2] + w[:, 3])
    )
    mu = maximal.measure_from_gradient(f)
    in_ball = phi_ball(f, np.zeros(4), 0.45)[0]
    full = maximal.phi_maximal(f, mu, 0.45, c_hat_l=1.0, centers=np.flatnonzero(in_ball))
    # the field's median over the ball: J_theta holds about half of it
    theta = float(np.median(full[in_ball]))
    assert np.mean(mu.flat) / LEMMA_GRID.cell_volume < theta < largest_density(f)
    kw = {"s": 0.45, "theta": theta, "pair_budget": 2000, "c_hat_l": 1.0}
    ladders = count_ladder_loops(monkeypatch)
    rep = maximal.check_phi_lemma(f, **kw)
    assert ladders == ["phi_maximal"]
    assert 2 <= rep["off_level_cells"] < np.count_nonzero(in_ball)
    assert rep == phi_lemma_reference(f, **kw)


def test_phi_lemma_logs_which_branch_decided(caplog):
    f = GridFunction.from_callable(
        LEMMA_GRID, lambda w: 0.05 * w[:, 1] + 0.02 * np.sin(4 * w[:, 2] + w[:, 3])
    )
    top = largest_density(f)
    caplog.set_level("DEBUG", logger="hlip.maximal")
    for theta in (2.0 * top, 0.9 * top):
        maximal.check_phi_lemma(f, s=0.45, theta=theta, pair_budget=500, c_hat_l=1.0)
    first, second = (r.getMessage() for r in caplog.records if r.name == "hlip.maximal")
    assert first.startswith("phi_maximal: the density bound decides")
    assert second.startswith("phi_maximal: the ladder decides")
    assert f"threshold {2.0 * top!r}" in first and f"threshold {0.9 * top!r}" in second


def test_phi_lemma_unestimable_c_l_raises_before_the_bound():
    # at h = 0.3 every c_L ball leaves the grid, so the estimate raises on
    # its own; the lemma with c_L pinned to 1 lets the bound decide
    g = generators.default_grid(2, 0.3)
    f = GridFunction.from_callable(g, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] * w[:, 3])
    theta = 10.0 * largest_density(f)
    with pytest.raises(maximal.PhiLemmaError, match="every sampled ball left the grid"):
        maximal.estimate_ball_constants(f)
    rep = maximal.check_phi_lemma(f, s=0.45, theta=theta, pair_budget=500, c_hat_l=1.0)
    assert rep == phi_lemma_reference(f, s=0.45, theta=theta, pair_budget=500, c_hat_l=1.0)


def test_poincare_constant_conventions():
    # origin-centred balls need r above the staggered-centre offset
    # sqrt(h/2), hence the roomier grid and r = 0.25
    pspec = GridSpec.centered(2, 0.7, 0.1)
    f = GridFunction.constant(pspec, 0.0)
    rep = maximal.check_poincare(f, np.zeros(4), 0.25)
    assert rep["ratio"] == 0.0 and not rep["violation_candidate"]
    # a tall constant graph shears its balls toward the t-faces (the
    # group twist makes d_phi genuinely height dependent), so the same
    # window now leaves the grid and must be refused
    tall = GridFunction.constant(pspec, 2.0)
    with pytest.raises(ValueError):
        maximal.check_poincare(tall, np.zeros(4), 0.25)
    with pytest.raises(ValueError):
        maximal.check_poincare(f, np.zeros(4), 5.0)


def test_poincare_ratio_slope_independent():
    pspec = GridSpec.centered(2, 0.7, 0.1)
    vals = []
    for eps in (1e-3, 3e-3, 1e-2):
        f = GridFunction.from_callable(pspec, lambda w: eps * w[:, 1])
        rep = maximal.check_poincare(f, np.zeros(4), 0.25)
        assert not rep["violation_candidate"]
        vals.append(rep["ratio"])
    assert max(vals) / min(vals) < 1.02


def test_poincare_finite_over_random_windows(spec):
    f = GridFunction.from_callable(
        spec, lambda w: 0.04 * np.sin(2 * w[:, 1]) + 0.02 * w[:, 0] * w[:, 2]
    )
    rng = np.random.default_rng(17)
    nodes = spec.nodes()
    # three layers of margin so the doubled outer ball rarely exits
    interior = np.flatnonzero(~spec.boundary_mask(3).ravel())
    checked = 0
    for _ in range(50):
        x = nodes[rng.choice(interior)]
        r = rng.uniform(0.10, 0.14)
        try:
            rep = maximal.check_poincare(f, x, r)
        except ValueError:
            continue  # ball left the grid for this draw
        assert math.isfinite(rep["ratio"])
        checked += 1
    assert checked > 20


def test_ball_constants_flat_graph():
    g = GridSpec.centered(2, 0.85, 0.075)
    f = GridFunction.constant(g, 0.0)
    assert maximal.estimate_ball_constants(f, samples=40, seed=2, r_bounds=(0.3, 0.5)) == 1.0


# --- ball constants against one phi_ball per draw ----------------------------


def ball_constants_reference(f, samples=50, seed=0, r_bounds=None, accepted=None):
    """estimate_ball_constants with a full phi_ball per draw, kept as the reference.

    A list passed as `accepted` gets one flag per draw: whether that ball
    counted."""
    spec = f.spec
    nodes = spec.nodes()
    if r_bounds is None:
        spatial = min(c * spec.h for c in spec.counts[:-1]) / 2.0
        r_hi = 0.5 * min(spatial, math.sqrt(spec.counts[-1] * spec.h / 2.0))
        r_bounds = (2 * spec.h, max(2.5 * spec.h, r_hi))
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~spec.boundary_mask(1).ravel())
    interior = interior[np.argsort(core.box(nodes[interior]), kind="stable")]
    interior = interior[: max(1, interior.size // 3)]
    used = 0
    for _ in range(20 * samples):
        if used >= samples:
            break
        ci = rng.choice(interior)
        r = math.exp(rng.uniform(math.log(r_bounds[0]), math.log(r_bounds[1])))
        mask, exits = phi_ball(f, nodes[ci], r)
        if accepted is not None:
            accepted.append(not exits and bool(np.any(mask)))
        if exits or not np.any(mask):
            continue
        used += 1
    if used == 0:
        raise ValueError("every sampled ball left the grid; shrink r_bounds")
    trip = rng.integers(0, spec.size, size=(samples, 3))
    px = f.graph()
    d = lambda a, b: 0.5 * (core.pi_rel_norm(px[a], px[b]) + core.pi_rel_norm(px[b], px[a]))
    dxy, dxz, dzy = d(trip[:, 0], trip[:, 1]), d(trip[:, 0], trip[:, 2]), d(trip[:, 2], trip[:, 1])
    ok = dxz + dzy > 1e-15
    c_l = float(np.max(dxy[ok] / (dxz + dzy)[ok], initial=1.0))
    return max(c_l, 1.0)


def ball_constants_outcome(estimate, f, **kw):
    try:
        return estimate(f, **kw)
    except ValueError as exc:
        return str(exc)


@st.composite
def graph_fields(draw):
    halves = tuple(draw(st.sampled_from((0.5, 0.75))) for _ in range(4))
    g = GridSpec.centered(2, halves, 0.25)
    a, b, c = (draw(st.floats(-0.3, 0.3)) for _ in range(3))
    return GridFunction.from_callable(
        g, lambda w: a * w[:, 1] + b * w[:, 0] * w[:, 3] + c * np.sin(3 * w[:, 2])
    )


@given(
    graph_fields(),
    st.integers(1, 30),
    st.integers(0, 2**16),
    st.none() | st.tuples(st.floats(0.05, 0.8), st.floats(1.01, 3.0)),
)
@settings(max_examples=60, deadline=None)
def test_ball_constants_match_phi_ball_reference(f, samples, seed, bounds):
    kw = {"samples": samples, "seed": seed}
    if bounds is not None:
        kw["r_bounds"] = (bounds[0], bounds[0] * bounds[1])
    got = ball_constants_outcome(maximal.estimate_ball_constants, f, **kw)
    assert got == ball_constants_outcome(ball_constants_reference, f, **kw)


def sampler_chunks(accepted, samples):
    """(size, cut by the 20 * samples cap) of each chunk estimate_ball_constants
    draws, given the reference's per-draw flags, and the balls used."""
    chunks, drawn, used = [], 0, 0
    while used < samples and drawn < 20 * samples:
        want = samples - used
        k = min(want, 20 * samples - drawn)
        chunks.append((k, k < want))
        used += sum(accepted[drawn : drawn + k])
        drawn += k
    return chunks, used


# samples, seed and r_bounds on the 7^4 grid below: `used` reaches samples
# on the last draw of the eighth chunk, a chunk of 3; and the cap cuts a
# chunk of 5 wanted draws to 1, with two balls used (a draw past the cap
# would have been used too)
CHUNK_END_CASES = {
    "samples_reached": (8, 2, (0.3, 0.48)),
    "cap_mid_chunk": (7, 3, (0.46, 0.736)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CHUNK_END_CASES))
def test_ball_constants_chunk_ends_match_phi_ball_reference(monkeypatch, case, workers):
    samples, seed, r_bounds = CHUNK_END_CASES[case]
    g = GridSpec.centered(2, 0.75, 0.25)
    f = GridFunction.from_callable(g, lambda w: 0.1 * w[:, 1] + 0.05 * w[:, 0] * w[:, 3])
    kw = {"samples": samples, "seed": seed, "r_bounds": r_bounds}
    accepted = []
    want = ball_constants_reference(f, **kw, accepted=accepted)
    chunks, used = sampler_chunks(accepted, samples)
    if case == "samples_reached":
        assert used == samples and len(chunks) == 8 and chunks[-1] == (3, False)
    else:
        assert 0 < used < samples and chunks[-1] == (1, True)
    monkeypatch.setattr(core, "_WORKERS", workers)
    loops, map_blocks = [], core._map_blocks

    def counted(fn, blocks):
        loops.append(fn)
        return map_blocks(fn, blocks)

    monkeypatch.setattr(core, "_map_blocks", counted)
    assert maximal.estimate_ball_constants(f, **kw) == want
    # one block loop per chunk: the boundary rows of its new centres
    assert len(loops) == len(chunks)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8)  # one row per block
    assert maximal.estimate_ball_constants(f, **kw) == want


def origin_grid(h):
    """A flat 3^4 grid whose one candidate centre is the origin node: its
    nearest boundary nodes differ from it by h on one spatial column alone,
    at d_phi = h exactly."""
    f = GridFunction.constant(GridSpec(2, (-h,) * 4, h, (3,) * 4), 0.0)
    boundary = f.graph()[f.spec.boundary_mask().ravel()]
    assert float(np.min(graph._sym_dist(f.graph()[40], boundary))) == h
    return f


@pytest.mark.parametrize("h", [0.1, 0.2, 0.09])
def test_ball_constants_radius_on_a_boundary_node_matches_reference(h):
    # r_bounds = (h, h) draws exp(log(h)), which rounds above h at h = 0.1,
    # to h at 0.2 and below it at 0.09; the ball leaves the grid only in the
    # first case, so the sampler must measure the nodes at exactly h
    f = origin_grid(h)
    kw = {"samples": 3, "seed": 1, "r_bounds": (h, h)}
    got = ball_constants_outcome(maximal.estimate_ball_constants, f, **kw)
    assert got == ball_constants_outcome(ball_constants_reference, f, **kw)
    assert isinstance(got, str) == (math.exp(math.log(h)) > h)


def test_ball_constants_node_just_beyond_reach_matches_reference():
    # r_bounds[1] a hair below h puts the nearest boundary nodes just outside
    # the sampler's reach (r_bounds[1] with its 1e-9 margin), where they
    # cannot hold a ball's radius; every ball stays inside
    h = 0.1
    f = origin_grid(h)
    r_hi = h / (1 + 2e-9)
    assert (r_hi * (1 + 1e-9)) ** 2 <= h * h < (r_hi * (1 + 1e-8)) ** 2
    kw = {"samples": 3, "seed": 1, "r_bounds": (0.5 * h, r_hi)}
    got = ball_constants_outcome(maximal.estimate_ball_constants, f, **kw)
    assert got == ball_constants_outcome(ball_constants_reference, f, **kw) == 1.0


def centre_offset(f):
    """The largest d_phi from an interior node's interpolated graph point,
    as estimate_ball_constants takes its centres, to the node's own."""
    interior = np.flatnonzero(~f.spec.boundary_mask(1).ravel())
    nodes = f.spec.nodes()[interior]
    centres = core.graph_points(nodes, f.interp(nodes))
    return float(np.max(graph._sym_dist(centres, f.graph()[interior])))


# estimate_ball_constants counts every ball that stays inside the grid,
# because its centre lies within rounding of its own node, far inside the
# smallest radius any caller draws (0.2 h in these tests)
@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1, None])
def test_ball_constant_centres_lie_on_their_nodes(eps):
    # the lemma battery's three fields, and the pipeline's h = 0.3 field
    if eps is None:
        g = generators.default_grid(2, 0.3)
        f = GridFunction.from_callable(g, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] * w[:, 3])
    else:
        f = GridFunction.from_callable(GridSpec.centered(2, 0.5, 0.1), lambda w: eps * w[:, 1])
    assert centre_offset(f) <= 1e-6 * f.spec.h


@given(graph_fields())
@settings(max_examples=40, deadline=None)
def test_ball_constant_centres_lie_on_their_nodes_of_drawn_fields(f):
    assert centre_offset(f) <= 1e-6 * f.spec.h


@pytest.mark.parametrize("r_bounds", [None, (0.05, 0.3)])
def test_ball_constants_match_reference_on_pipeline_grid(r_bounds):
    # at h = 0.3 every default-radius ball leaves the grid, so both raise
    g = generators.default_grid(2, 0.3)
    f = GridFunction.from_callable(g, lambda w: 0.05 * w[:, 1] + 0.02 * w[:, 0] * w[:, 3])
    got = ball_constants_outcome(maximal.estimate_ball_constants, f, r_bounds=r_bounds)
    assert got == ball_constants_outcome(ball_constants_reference, f, r_bounds=r_bounds)
    assert isinstance(got, str) == (r_bounds is None)
