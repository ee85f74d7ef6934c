"""Exactness of the discrete area gradient and solver behavior."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlip import core, graph, optimize, surface
from hlip.graph import GridFunction, GridSpec, intrinsic_gradient
from hlip.optimize import _adjoint_axis


def smooth(w):
    return 0.2 * np.sin(w[:, 1]) * np.cos(0.5 * w[:, 3]) + 0.1 * w[:, 0] * w[:, 2]


@pytest.fixture(scope="module")
def spec():
    return GridSpec.centered(2, 0.6, 0.1)


def test_energy_constant_equals_measure(spec):
    f = GridFunction.constant(spec, 1.3)
    assert math.isclose(optimize.energy(f), spec.size * spec.cell_volume, rel_tol=1e-14)
    mask = surface.disk_mask(spec, 0.5)
    assert math.isclose(
        surface.hperimeter(f, region=mask),
        int(np.count_nonzero(mask)) * spec.cell_volume,
        rel_tol=1e-14,
    )


def test_energy_bounded_below_by_measure(spec):
    rng = np.random.default_rng(11)
    f = GridFunction(spec, rng.normal(0.0, 0.5, spec.counts))
    assert optimize.energy(f) >= spec.size * spec.cell_volume


def test_axis_adjoint_identity():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(7, 5, 6, 9))
    h = 0.17
    for axis in range(4):
        u = rng.normal(size=arr.shape)
        lhs = np.sum(np.gradient(arr, h, axis=axis, edge_order=2) * u)
        whole = tuple(slice(0, c) for c in u.shape)
        rhs = np.sum(arr * _adjoint_axis(u, axis, h, np.empty_like(u), whole))
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("kind", ["low", "high", "inner", "whole"])
def test_axis_adjoint_on_a_box_plane_matches_the_grid_plane(axis, kind):
    # a plane holding grid nodes lo..hi-1 along `axis` (and a box of the
    # others), adjointed over the box one node inside it wherever the
    # plane stops short of the grid's end: the one-sided end terms fire
    # where the box meets the grid's end layers, not the plane's.  A box
    # keeps y_n and t (axes 2 and 3) whole, so for those the plane holds
    # both whole and is cut the same way along axis - 2 instead
    rng = np.random.default_rng(axis)
    u = rng.normal(size=(7, 8, 7, 9))
    h, cut = 0.13, axis % 2
    c = u.shape[cut]
    lo, hi = {"low": (0, 4), "high": (c - 4, c), "inner": (2, c - 2), "whole": (0, c)}[kind]
    plane = tuple(
        slice(lo, hi) if ax == cut else slice(0, m) if ax >= 2 and axis >= 2 else slice(1, m - 1)
        for ax, m in enumerate(u.shape)
    )
    box = tuple(slice(s.start + (s.start > 0), s.stop - (s.stop < m)) for s, m in zip(plane, u.shape))
    rel = tuple(slice(b.start - p.start, b.stop - p.start) for b, p in zip(box, plane))
    shape = tuple(b.stop - b.start for b in box)
    want = _adjoint_axis(u, axis, h, np.empty(shape), box)
    got = _adjoint_axis(u[plane], axis, h, np.empty(shape), rel, *((lo, c) if axis < 2 else ()))
    np.testing.assert_array_equal(got, want)
    # a plane-relative length puts the end layers in the wrong place
    if kind == "high" and axis < 2:
        wrong = _adjoint_axis(u[plane], axis, h, np.empty(shape), rel, lo)
        assert not np.array_equal(wrong, want)


@pytest.mark.parametrize("axis", [2, 3])
@pytest.mark.parametrize("case", ["offset", "cut y_n", "cut t"])
def test_axis_adjoint_along_y_n_or_t_rejects_a_partial_axis(axis, case):
    u = np.random.default_rng(axis).normal(size=(7, 8, 7, 9))
    box = [slice(1, 6), slice(1, 7), slice(0, 7), slice(0, 9)]
    offset = 0
    if case == "offset":
        offset = 1
    else:
        ax = 2 if case == "cut y_n" else 3
        box[ax] = slice(1, u.shape[ax])
    shape = tuple(b.stop - b.start for b in box)
    with pytest.raises(ValueError, match="whole axis"):
        _adjoint_axis(u, axis, 0.13, np.empty(shape), tuple(box), offset)


def test_gradient_vanishes_at_constant(spec):
    g = optimize.energy_gradient(GridFunction.constant(spec, 0.7))
    assert np.max(np.abs(g)) == 0.0


def test_gradient_matches_finite_differences(spec):
    f = GridFunction.from_callable(spec, smooth)
    assert optimize.gradient_check(f, num_nodes=100, seed=2) < 1e-6


def test_gradient_check_degrades_at_large_step(spec):
    f = GridFunction.from_callable(spec, smooth)
    fine = optimize.gradient_check(f, num_nodes=30, seed=1)
    crude = optimize.gradient_check(f, num_nodes=30, step=0.5, seed=1)
    assert crude > 100 * fine
    assert crude > 1e-4


def test_directional_derivative_along_20_directions(spec):
    f = GridFunction.from_callable(spec, smooth)
    g = optimize.energy_gradient(f)
    free = ~spec.boundary_mask(optimize.STENCIL_REACH).ravel()
    rng = np.random.default_rng(9)
    eps = 1e-5
    scale = float(np.linalg.norm(g))  # |d| = 1, so this bounds any <g, d>
    for _ in range(20):
        d = np.zeros(spec.size)
        d[free] = rng.normal(size=int(np.count_nonzero(free)))
        d /= np.linalg.norm(d)
        ep = optimize.energy(GridFunction(spec, (f.flat + eps * d).reshape(spec.counts)))
        em = optimize.energy(GridFunction(spec, (f.flat - eps * d).reshape(spec.counts)))
        fd = (ep - em) / (2 * eps)
        an = float(g @ d)
        assert abs(an - fd) / max(abs(an), abs(fd), scale) < 1e-6


def test_gradient_locality_of_single_node_bump(spec):
    vals = np.full(spec.counts, 0.2)
    idx = tuple(c // 2 for c in spec.counts)
    vals[idx] += 0.05
    g = optimize.energy_gradient(GridFunction(spec, vals)).reshape(spec.counts)
    far = np.ones(spec.counts, dtype=bool)
    far[tuple(slice(i - 3, i + 4) for i in idx)] = False
    assert np.max(np.abs(g[far])) == 0.0
    assert np.max(np.abs(g)) > 0.0


def test_solve_constant_data_from_noisy_interior(spec):
    prob = optimize.dirichlet_problem(
        spec,
        data=0.4,
        init=lambda w: 0.4 + 0.05 * np.sin(3 * w[:, 0]) * np.cos(2 * w[:, 1]) * np.cos(w[:, 3]),
    )
    rep = optimize.solve(prob)
    assert rep.converged and not rep.line_search_failed
    assert rep.iterations > 0
    assert rep.calibration_gap < 1e-6
    assert rep.calibration_gap > -1e-12
    assert np.all(np.diff(rep.energy_trace) <= 0)
    assert np.max(np.abs(rep.phi.values - 0.4)) < 1e-3
    # boundary data untouched
    m = prob.mask
    assert np.array_equal(rep.phi.values[m], prob.initial.values[m])


def test_solve_already_optimal_takes_no_steps(spec):
    prob = optimize.dirichlet_problem(spec, data=0.4)
    rep = optimize.solve(prob)
    assert rep.iterations == 0
    assert rep.converged
    assert rep.energy_trace.shape == (1,)


def test_linear_graph_is_discrete_critical_point(spec):
    # phi = eps*y_1 has constant intrinsic gradient; with three fixed
    # layers the one-sided stencil columns never reach a free node
    prob = optimize.dirichlet_problem(spec, data=lambda w: 0.1 * w[:, 1])
    g = optimize.energy_gradient(prob.initial)
    assert np.max(np.abs(g[~prob.mask.ravel()])) < 1e-13
    rep = optimize.solve(prob)
    assert rep.iterations == 0
    assert math.isclose(
        rep.energy_trace[-1],
        math.sqrt(1.01) * spec.size * spec.cell_volume,
        rel_tol=1e-12,
    )


def disk_problem(spec, data, init, radius=0.55):
    """dirichlet_problem with every node outside the disk D_radius fixed
    to the data too, so the free nodes form a set that is not a box."""
    prob = optimize.dirichlet_problem(spec, data)
    disk = surface.disk_mask(spec, radius).reshape(spec.counts)
    mask = spec.boundary_mask(optimize.STENCIL_REACH) | ~disk
    vals = prob.initial.values.copy()
    vals[~mask] = GridFunction.from_callable(spec, init).values[~mask]
    return optimize.DirichletProblem(GridFunction(spec, vals), mask)


def test_solve_on_disk_region(spec):
    prob = disk_problem(spec, data=0.0, init=lambda w: 0.03 * np.cos(4 * w[:, 1]) * np.cos(w[:, 3]))
    free = ~prob.mask.ravel()
    assert np.all(free <= surface.disk_mask(spec, 0.55))  # free nodes sit inside the disk
    rep = optimize.solve(prob)
    assert rep.converged
    assert -1e-12 < rep.calibration_gap < 1e-6


def test_capped_run_reports_unconverged(spec):
    prob = optimize.dirichlet_problem(
        spec,
        data=lambda w: 0.3 * w[:, 1],
        init=lambda w: 0.3 * w[:, 1] + 0.1 * np.sin(5 * w[:, 0]) * np.sin(4 * w[:, 3]),
    )
    rep = optimize.solve(prob, max_iter=3)
    assert rep.iterations == 3
    assert not rep.converged
    assert np.all(np.diff(rep.energy_trace) <= 0)
    assert rep.calibration_gap > 0


def test_problem_validation(spec):
    f = GridFunction.constant(spec, 0.0)
    rim = spec.boundary_mask(optimize.STENCIL_REACH)
    assert optimize.DirichletProblem(f, rim).mask is rim
    with pytest.raises(ValueError, match="shape"):
        optimize.DirichletProblem(f, rim.ravel())
    with pytest.raises(ValueError, match="shape"):
        optimize.DirichletProblem(f, rim[1:])
    with pytest.raises(ValueError, match="3 layers"):
        optimize.DirichletProblem(f, spec.boundary_mask(optimize.STENCIL_REACH - 1))


def test_report_trace_invariant(spec):
    f = GridFunction.constant(spec, 0.0)
    with pytest.raises(ValueError):
        optimize.SolveReport(
            phi=f,
            energy_trace=np.array([1.0, 2.0]),
            gradient_trace=np.array([1.0, 1.0]),
            iterations=1,
            converged=False,
            line_search_failed=False,
            calibration_gap=0.0,
        )


def test_gradient_check_higher_dimension():
    spec3 = GridSpec.centered(3, 0.5, 0.125)
    f = GridFunction.from_callable(
        spec3, lambda w: 0.1 * np.sin(w[:, 2]) * np.cos(w[:, 5]) + 0.05 * w[:, 0] * w[:, 3]
    )
    assert optimize.gradient_check(f, num_nodes=5, seed=8) < 1e-6


# --- one stencil pass per descent point --------------------------------------


def _adjoint_reference(u, axis, h):
    g = np.zeros_like(u)
    nd = u.ndim

    def sl(s):
        idx = [slice(None)] * nd
        idx[axis] = s
        return tuple(idx)

    g[sl(slice(2, None))] += u[sl(slice(1, -1))]
    g[sl(slice(None, -2))] -= u[sl(slice(1, -1))]
    for j, i, c in ((0, 0, -3.0), (1, 0, 4.0), (2, 0, -1.0),
                    (-1, -1, 3.0), (-2, -1, -4.0), (-3, -1, 1.0)):
        g[sl(j)] += c * u[sl(i)]
    g /= 2.0 * h
    return g


def _components_reference(f):
    n, h = f.spec.n, f.spec.h
    parts = [np.gradient(f.values, h, axis=ax, edge_order=2) for ax in range(2 * n)]
    dt = parts[2 * n - 1]
    comps = np.empty((2 * n - 1,) + f.spec.counts)
    for i in range(2, n + 1):
        comps[i - 2] = parts[i - 2] + 2.0 * f.spec.coordinate_field(n + i - 2) * dt
    comps[n - 1] = parts[n - 1] - 4.0 * f.values * dt
    for i in range(2, n + 1):
        comps[n + i - 2] = parts[n + i - 2] - 2.0 * f.spec.coordinate_field(i - 2) * dt
    return comps


def energy_reference(f):
    """Midpoint-rule area from np.gradient partials, kept as the reference."""
    area = np.sqrt(1.0 + np.sum(_components_reference(f) ** 2, axis=0)).ravel()
    return float(np.sum(area) * f.spec.cell_volume)


def energy_gradient_reference(f):
    """The area gradient with its own stencil pass, kept as the reference."""
    spec = f.spec
    n, h, V = spec.n, spec.h, spec.cell_volume
    t_ax = 2 * n - 1
    G = _components_reference(f)
    W = G * (V / np.sqrt(1.0 + np.sum(G * G, axis=0)))
    grad = np.zeros(spec.counts)
    for i in range(2, n + 1):
        wx = W[i - 2]
        grad += _adjoint_reference(wx, i - 2, h)
        grad += _adjoint_reference(2.0 * spec.coordinate_field(n + i - 2) * wx, t_ax, h)
    wb = W[n - 1]
    dt = np.gradient(f.values, h, axis=t_ax, edge_order=2)
    grad += _adjoint_reference(wb, n - 1, h)
    grad -= 4.0 * dt * wb
    grad -= 4.0 * _adjoint_reference(f.values * wb, t_ax, h)
    for i in range(2, n + 1):
        wy = W[n + i - 2]
        grad += _adjoint_reference(wy, n + i - 2, h)
        grad -= _adjoint_reference(2.0 * spec.coordinate_field(i - 2) * wy, t_ax, h)
    return grad.ravel()


def solve_reference(problem, tol=1e-8, max_iter=5000):
    """Descent with separate energy and gradient evaluations, kept as the reference."""
    spec, free = problem.spec, ~problem.mask.ravel()

    def masked_grad(vals):
        g = energy_gradient_reference(GridFunction(spec, vals))
        g[~free] = 0.0
        return g

    def e_of(vals):
        return energy_reference(GridFunction(spec, vals))

    x = problem.initial.values.ravel().copy()
    e = e_of(x.reshape(spec.counts))
    g = masked_grad(x.reshape(spec.counts))
    e_trace, g_trace = [e], [float(np.max(np.abs(g)))]
    prev_x = prev_g = last_alpha = None
    iterations = 0
    while iterations < max_iter and g_trace[-1] > tol:
        alpha = None
        if prev_x is not None:
            s, y = x - prev_x, g - prev_g
            sy = float(s @ y)
            if sy > 1e-300:
                alpha = float(s @ s) / sy
        if alpha is None or not np.isfinite(alpha) or alpha <= 0:
            alpha = 2.0 * last_alpha if last_alpha else 1.0 / max(g_trace[-1], 1.0)
        gg = float(g @ g)
        accepted = False
        for _ in range(60):
            cand = x - alpha * g
            ec = e_of(cand.reshape(spec.counts))
            if ec <= e - 1e-4 * alpha * gg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        prev_x, prev_g = x, g
        x, e, last_alpha = cand, ec, alpha
        g = masked_grad(x.reshape(spec.counts))
        e_trace.append(e)
        g_trace.append(float(np.max(np.abs(g))))
        iterations += 1
    return x, np.asarray(e_trace), np.asarray(g_trace), iterations, g_trace[-1] <= tol


def _solve_matches_reference(prob, **kwargs):
    """solve(prob) against solve_reference(prob), bit for bit; returns the report."""
    rep = optimize.solve(prob, **kwargs)
    x, e_trace, g_trace, iterations, converged = solve_reference(prob, **kwargs)
    np.testing.assert_array_equal(rep.energy_trace, e_trace)
    np.testing.assert_array_equal(rep.gradient_trace, g_trace)
    assert rep.iterations == iterations
    assert rep.converged == converged
    np.testing.assert_array_equal(rep.phi.values, x.reshape(prob.spec.counts))
    return rep


def _wavy(w):
    return 0.3 + 0.04 * np.sin(3 * w[:, 0]) * np.cos(2 * w[:, 1]) * np.cos(w[:, 3])


@pytest.mark.parametrize("disk", [False, True])
def test_solve_matches_reference_bitwise(spec, disk):
    make = disk_problem if disk else optimize.dirichlet_problem
    prob = make(spec, data=lambda w: 0.3 + 0.05 * w[:, 1], init=_wavy)
    # both runs need more than 12 steps, so this one stops at the cap
    rep = _solve_matches_reference(prob, tol=1e-7, max_iter=12)
    assert rep.iterations == 12 and not rep.converged


def test_solve_converged_run_matches_reference_bitwise(spec):
    prob = optimize.dirichlet_problem(spec, data=0.4, init=_wavy)
    assert _solve_matches_reference(prob).converged


def test_public_energy_and_gradient_match_reference_bitwise(spec):
    f = GridFunction.from_callable(spec, smooth)
    e = optimize.energy(f)
    assert e == surface.hperimeter(f)
    assert e == energy_reference(f)
    np.testing.assert_array_equal(optimize.energy_gradient(f), energy_gradient_reference(f))


def test_public_energy_and_gradient_n3_match_reference_bitwise():
    spec3 = GridSpec.centered(3, 0.5, 0.125)
    f = GridFunction.from_callable(
        spec3, lambda w: 0.1 * np.sin(w[:, 2]) * np.cos(w[:, 5]) + 0.05 * w[:, 0] * w[:, 3]
    )
    assert optimize.energy(f) == surface.hperimeter(f) == energy_reference(f)
    np.testing.assert_array_equal(optimize.energy_gradient(f), energy_gradient_reference(f))


def test_energy_and_gradient_leave_inputs_alone(spec):
    f = GridFunction.from_callable(spec, smooth)
    values = f.values.copy()
    earlier = intrinsic_gradient(f)
    comps, dt = earlier.components.copy(), earlier.dt.copy()
    optimize.energy(f)
    g1 = optimize.energy_gradient(f)
    optimize.energy(f)
    g2 = optimize.energy_gradient(f)
    np.testing.assert_array_equal(f.values, values)
    np.testing.assert_array_equal(earlier.components, comps)
    np.testing.assert_array_equal(earlier.dt, dt)
    np.testing.assert_array_equal(g1, g2)


def test_energy_of_a_plain_function_allocates_only_its_pass_planes():
    # a plain GridFunction's energy holds one grid-sized plane, the area,
    # and streams its pass in x_2-slabs: the components, dt and tmp are
    # slab planes of at most one block each
    spec = GridSpec.centered(2, 1.0, 0.1)
    f = GridFunction.from_callable(spec, smooth)
    plane = 8 * spec.size
    assert plane > core._BLOCK_BYTES
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        optimize.energy(f)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < plane + (2 * spec.n + 1) * core._BLOCK_BYTES


def test_energy_equals_hperimeter_on_a_grid_of_many_slabs():
    spec = GridSpec.centered(2, 1.0, 0.1)
    assert 8 * spec.size > core._BLOCK_BYTES
    assert len(list(graph._slab_planes(spec))) > 1
    f = GridFunction.from_callable(spec, smooth)
    assert optimize.energy(f) == surface.hperimeter(f)


def test_solve_runs_one_stencil_pass_per_energy_call(spec, monkeypatch):
    # solve streams the grid's pass in x_2-slabs once, in one graph._area
    # call before its first energy; every energy, the first one included,
    # runs one pass over the energy box, and the area element outside it
    # stays the stream's, bit for bit, also after every gradient, whose
    # adjoints take the area plane as scratch
    calls = {"_area": 0, "energy": 0, "energy_gradient": 0}
    passes = []  # (box, grid area plane) after every intrinsic-gradient call
    per_call = []  # (name, the passes it ran) of every counted call
    areas = []  # grid area plane after every energy and energy_gradient call

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            before = len(passes)
            result = fn(*args, **kwargs)
            per_call.append((name, passes[before:]))
            if name != "_area":
                areas.append(args[0].planes[3].base.copy())
            return result
        return wrapped

    def recording(f, box=None, out=None):
        result = intrinsic(f, box, out)
        passes.append((box, out[3].base.copy()))  # the grid plane of the box view
        return result

    for name in calls:
        monkeypatch.setattr(optimize, name, counting(name, getattr(optimize, name)))
    intrinsic = optimize.intrinsic_gradient
    monkeypatch.setattr(optimize, "intrinsic_gradient", recording)
    # the stream's slab passes run in graph._area
    monkeypatch.setattr(graph, "intrinsic_gradient", recording)
    prob = optimize.dirichlet_problem(spec, data=0.4, init=_wavy)
    rep = optimize.solve(prob, max_iter=20)
    assert rep.iterations == 20
    assert calls["_area"] == 1
    assert calls["energy"] > calls["energy_gradient"] == rep.iterations + 1
    energy_box = optimize._free_boxes(prob.mask, spec.n)[0]
    outside = np.ones(spec.counts, dtype=bool)
    outside[energy_box] = False
    assert outside.any() and not outside.all()
    # the stream: slabs of whole axis-0 rows that tile the grid in order
    name, slabs = per_call[0]
    assert name == "_area" and len(slabs) > 1
    whole = tuple(slice(0, c) for c in spec.counts)
    assert [box[1:] for box, _ in slabs] == [whole[1:]] * len(slabs)
    edges = [box[0] for box, _ in slabs]
    assert edges[0].start == 0 and edges[-1].stop == spec.counts[0]
    assert all(a.stop == b.start for a, b in zip(edges, edges[1:]))
    stream_area = slabs[-1][1]
    for name, ran in per_call[1:]:
        assert [box for box, _ in ran] == ([energy_box] if name == "energy" else [])
    assert len(passes) == len(slabs) + calls["energy"]
    assert len(areas) == calls["energy"] + calls["energy_gradient"]
    for area in areas:
        np.testing.assert_array_equal(area[outside], stream_area[outside])


def test_solve_runs_in_a_fixed_working_set():
    # solve allocates its four vectors (x, g and two spares), the area
    # plane and the 2n + 1 box planes of a stencil pass (components, dt and
    # tmp, shaped like the energy box) once; no step allocates a
    # grid-sized array, so the traced peak stays within one plane of those
    # and does not grow with the number of steps
    spec = GridSpec.centered(2, 0.8, 0.1)  # 65,536 nodes
    plane = 8 * spec.size
    prob = optimize.dirichlet_problem(spec, data=0.4, init=_wavy)
    energy_box = optimize._free_boxes(prob.mask, spec.n)[0]
    box_share = math.prod(s.stop - s.start for s in energy_box) / spec.size
    assert box_share < 0.6
    peaks = {}
    for steps in (5, 40):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = optimize.solve(prob, max_iter=steps)
            peaks[steps] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rep.iterations == steps
    assert max(peaks.values()) <= (4 + 1 + (2 * spec.n + 1) * box_share + 1) * plane
    assert peaks[40] <= peaks[5] + plane


def test_dirichlet_problem_leaves_no_node_array_cached(spec):
    graph.grid_nodes.cache_clear()
    prob = optimize.dirichlet_problem(spec, data=lambda w: 0.3 + 0.05 * w[:, 1], init=_wavy)
    assert graph.grid_nodes.cache_info().currsize == 0
    nodes = spec.nodes()
    mask = prob.mask.ravel()
    expected = np.where(mask, 0.3 + 0.05 * nodes[:, 1], _wavy(nodes))
    np.testing.assert_array_equal(prob.initial.values.ravel(), expected)


def test_dirichlet_problem_holds_under_two_planes():
    # the values, the mask and, per block of nodes, its coordinates and the
    # data and init values: no node array of the whole grid.  The data and
    # the random start are hlip minimize's
    spec = GridSpec.centered(2, 1.0, 0.1)
    plane = 8 * spec.size
    assert 8 * 2 * spec.n * spec.size > core._BLOCK_BYTES
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        prob = optimize.dirichlet_problem(
            spec,
            data=lambda w: 0.3 + 0.05 * w[:, spec.n - 1],
            init=lambda w: 0.3 + 0.05 * rng.standard_normal(len(w)),
        )
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert prob.initial.values.shape == spec.counts
    assert peak < 2 * plane


@pytest.mark.parametrize("rows", [1, 37, None])  # node rows per block; None: the default budget
def test_dirichlet_problem_calls_data_and_init_per_block_in_node_order(monkeypatch, spec, rows):
    # init draws len(nodes) normals from one stream per call, as hlip
    # minimize's does: the blocks' draws are one draw over the whole grid
    if rows:
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 2 * spec.n * rows)
    rng = np.random.default_rng(4)
    seen = []

    def init(w):
        seen.append(len(w))
        return 0.3 + 0.05 * rng.standard_normal(len(w))

    prob = optimize.dirichlet_problem(spec, data=0.3, init=init)
    assert sum(seen) == spec.size
    assert len(seen) == len(list(core._row_blocks(spec.size, 2 * spec.n)))
    draw = 0.3 + 0.05 * np.random.default_rng(4).standard_normal(spec.size)
    mask = prob.mask.ravel()
    expected = np.where(mask, 0.3, draw)
    np.testing.assert_array_equal(prob.initial.values.ravel(), expected)


@st.composite
def descent_problems(draw):
    """n = 2 problems on grids of unequal counts: the 3-layer rim, fixed
    blobs drawn on top of it and an optional disk outside which every node
    is fixed, so the free nodes' box shrinks, shifts or empties."""
    counts = tuple(draw(st.lists(st.integers(8, 11), min_size=4, max_size=4)))
    spec = GridSpec(2, tuple(-(c - 1) * 0.05 for c in counts), 0.1, counts)
    radius = draw(st.sampled_from((None, 0.3, 0.4, 0.6)))
    prob = optimize.dirichlet_problem(spec, data=lambda w: 0.3 + 0.05 * w[:, 1], init=_wavy)
    mask = prob.mask.copy()
    if radius is not None:
        mask |= ~surface.disk_mask(spec, radius).reshape(counts)
    for _ in range(draw(st.integers(0, 4))):
        corner = [draw(st.integers(0, c - 1)) for c in counts]
        sides = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
        mask[tuple(slice(a, a + w) for a, w in zip(corner, sides))] = True
    return optimize.DirichletProblem(GridFunction(spec, prob.initial.values), mask)


@settings(max_examples=40, deadline=None)
@given(descent_problems())
def test_solve_on_drawn_free_sets_matches_reference_bitwise(prob):
    _solve_matches_reference(prob, tol=1e-7, max_iter=6)


def test_solve_n3_matches_reference_bitwise():
    spec3 = GridSpec(3, (-0.3,) * 6, 0.1, (7, 8, 9, 7, 8, 7))
    prob = optimize.dirichlet_problem(
        spec3,
        data=lambda w: 0.2 + 0.05 * w[:, 2],
        init=lambda w: 0.2 + 0.04 * np.sin(3 * w[:, 0]) * np.cos(2 * w[:, 3]) * np.cos(w[:, 5]),
    )
    rep = _solve_matches_reference(prob, tol=1e-7, max_iter=8)
    assert rep.iterations > 0


def fixed_problem(spec):
    """A problem whose six fixed layers at the grid edge leave no free node."""
    f = GridFunction.from_callable(spec, lambda w: 0.3 + 0.05 * w[:, 1])
    prob = optimize.DirichletProblem(f, spec.boundary_mask(6))
    assert prob.mask.all()
    return prob


def test_solve_without_free_nodes_matches_reference_bitwise(spec):
    rep = _solve_matches_reference(fixed_problem(spec))
    assert rep.iterations == 0 and rep.converged
    assert rep.calibration_gap == rep.energy_trace[0] - spec.size * spec.cell_volume


def test_solve_keeps_stepping_over_empty_boxes(spec):
    # a tol below 0 keeps the loop going, so every energy and gradient
    # after the first runs over the empty boxes of a problem without free nodes
    rep = _solve_matches_reference(fixed_problem(spec), tol=-1.0, max_iter=3)
    assert rep.iterations == 3 and not rep.converged


# --- x_2-slabs: the stencil passes split into row blocks ---------------------

# rows per block and threads; one-row blocks put each of rows 0, 1, 2 and
# N-3..N-1, where the one-sided and adjoint edge terms live, in its own block
SLABS = [(rows, workers) for rows in (1, 2, 3) for workers in (1, 2)]


def _force_slabs(monkeypatch, spec, rows, workers, box=None):
    # sized from the columns of `box` (the whole grid by default), so a
    # pass over a box at least as wide gets blocks of at most `rows` rows
    box = box or tuple(slice(0, c) for c in spec.counts)
    span = box[0].stop - box[0].start
    cols = math.prod(s.stop - s.start for s in box[1:])
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * cols * rows)
    monkeypatch.setattr(core, "_WORKERS", workers)
    assert len(list(core._row_blocks(span, cols))) == math.ceil(span / rows)


@pytest.mark.parametrize("rows,workers", SLABS)
@pytest.mark.parametrize("descent_point", [False, True])
def test_energy_and_gradient_in_slabs_match_reference_bitwise(
    spec, monkeypatch, rows, workers, descent_point
):
    # a descent point whose free nodes fill a disk scales and adjoints over
    # boxes: its gradient is exact inside the gradient box and zero outside
    f = GridFunction.from_callable(spec, smooth)
    g_want = energy_gradient_reference(f)
    if descent_point:
        mask = disk_problem(spec, smooth, smooth, radius=0.5).mask
        boxes = optimize._free_boxes(mask, spec.n)
        inside = np.zeros(spec.counts, dtype=bool)
        inside[boxes[1]] = True
        assert not inside.all()
        g_want = np.where(inside.ravel(), g_want, 0.0)
    _force_slabs(monkeypatch, spec, rows, workers)
    if descent_point:
        planes = optimize._descent_planes(f, boxes[0])
        f = optimize._Iterate(spec, f.values, boxes=boxes, planes=planes)
    assert optimize.energy(f) == energy_reference(f)
    np.testing.assert_array_equal(optimize.energy_gradient(f), g_want)


@pytest.mark.parametrize("rows,workers", SLABS)
def test_energy_and_gradient_n3_in_slabs_match_reference_bitwise(monkeypatch, rows, workers):
    spec3 = GridSpec.centered(3, 0.5, 0.125)
    f = GridFunction.from_callable(
        spec3, lambda w: 0.1 * np.sin(w[:, 2]) * np.cos(w[:, 5]) + 0.05 * w[:, 0] * w[:, 3]
    )
    _force_slabs(monkeypatch, spec3, rows, workers)
    assert optimize.energy(f) == energy_reference(f)
    np.testing.assert_array_equal(optimize.energy_gradient(f), energy_gradient_reference(f))


@pytest.mark.parametrize("rows,workers", SLABS)
def test_solve_in_slabs_matches_reference_bitwise(spec, monkeypatch, rows, workers):
    prob = disk_problem(spec, data=lambda w: 0.3 + 0.05 * w[:, 1], init=_wavy)
    # the gradient box is the narrowest pass of the descent
    grad_box = optimize._free_boxes(prob.mask, spec.n)[1]
    _force_slabs(monkeypatch, spec, rows, workers, grad_box)
    assert _solve_matches_reference(prob, tol=1e-7, max_iter=12).iterations == 12


def test_gradient_in_slabs_under_fast_thread_switches(spec, monkeypatch):
    # one-row slabs on two threads that switch every microsecond: a slab
    # that read a row before another slab wrote it would show here
    f = GridFunction.from_callable(spec, smooth)
    e_want, g_want = energy_reference(f), energy_gradient_reference(f)
    _force_slabs(monkeypatch, spec, 1, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert optimize.energy(f) == e_want
            np.testing.assert_array_equal(optimize.energy_gradient(f), g_want)
    finally:
        sys.setswitchinterval(interval)


@st.composite
def small_points(draw):
    """(f, boxes): random values on grids of 3-7 nodes per axis, n = 2 or
    3, and either no boxes (a plain function) or the descent boxes of a
    mask that fixes the 3-layer rim of the leading axes and drawn blobs.
    The y_n and t stencils wrap across those short axes' ends, where the
    wrapped layers meet, and on axes under 6 nodes overlap, the end
    layers.  A descent point's leading axes take 7-8 nodes, the fewest
    that leave free nodes inside the rim."""
    n = draw(st.sampled_from((2, 3)))
    descent = draw(st.booleans())
    lead = [draw(st.integers(7, 8) if descent else st.integers(3, 7)) for _ in range(2 * n - 2)]
    counts = tuple(lead + [draw(st.integers(3, 7)) for _ in range(2)])
    spec = GridSpec(n, tuple(-(c - 1) * 0.05 for c in counts), 0.1, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(spec, 0.3 + draw(st.sampled_from((0.05, 1.0))) * rng.normal(size=counts))
    if not descent:
        return f, None
    mask = np.zeros(counts, dtype=bool)
    for ax in range(2 * n - 2):
        mask[graph._sl(2 * n, ax, slice(0, optimize.STENCIL_REACH))] = True
        mask[graph._sl(2 * n, ax, slice(counts[ax] - optimize.STENCIL_REACH, None))] = True
    for _ in range(draw(st.integers(0, 3))):
        corner = [draw(st.integers(0, c - 1)) for c in counts]
        sides = draw(st.lists(st.integers(1, 3), min_size=2 * n, max_size=2 * n))
        mask[tuple(slice(a, a + w) for a, w in zip(corner, sides))] = True
    return f, optimize._free_boxes(mask, n)


@settings(max_examples=60, deadline=None)
@given(small_points(), st.integers(1, 3), st.sampled_from((1, 2)))
def test_energy_and_gradient_on_short_axes_match_reference_bitwise(point, rows, workers):
    # slabs of 1-3 x_2 rows on one thread or two; a descent point's planes
    # stream the grid, each of its energies runs the box pass, and the
    # gradient after either is the reference's inside the gradient box and
    # zero outside
    f, boxes = point
    spec = f.spec
    e_want, g_want = energy_reference(f), energy_gradient_reference(f)
    if boxes is not None:
        inside = np.zeros(spec.counts, dtype=bool)
        inside[boxes[1]] = True
        g_want = np.where(inside.ravel(), g_want, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", 8 * (spec.size // spec.counts[0]) * rows)
        mp.setattr(core, "_WORKERS", workers)
        if boxes is not None:
            planes = optimize._descent_planes(f, boxes[0])
            f = optimize._Iterate(spec, f.values, boxes=boxes, planes=planes)
        for _ in range(1 if boxes is None else 2):
            assert optimize.energy(f) == e_want
            np.testing.assert_array_equal(optimize.energy_gradient(f), g_want)
