"""Driver behavior: dispatch, exit codes, report determinism, file artifacts."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hlip import approx, core, fileio, generators, graph
from hlip.cli import main

KAPPA2, DELTA2 = core.constants(2)[:2]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    report = fileio.read_report(out / f"{argv[0]}_report.json")
    return code, report, out


# --------------------------------------------------------------- constants


def test_constants_closed_forms(tmp_path):
    code, report, _ = run(tmp_path, "constants")
    assert code == 0
    res = report["results"]
    assert math.isclose(res["kappa"], 8 * math.pi / 3, rel_tol=1e-15)
    assert math.isclose(res["delta"], 5 / math.pi, rel_tol=1e-15)
    table = res["extension_table"]
    assert table["label"] == "empirical"
    rows = {row["L"]: row for row in table["value"]}
    assert rows[0.07]["passed"]  # the 2L budget holds through L = 0.07
    assert not rows[0.08]["passed"]
    for row in rows.values():
        assert row["slack"] == pytest.approx(row["rhs"] - row["lhs"])


def test_constants_rejects_low_dimension(capsys):
    assert main(["constants", "--n", "1"]) == 1
    assert "n >= 2" in capsys.readouterr().err


# --------------------------------------------------------------------- gen


def test_gen_flat_writes_cloud(tmp_path):
    code, report, out = run(tmp_path, "gen", "flat", "--h", "0.5")
    assert code == 0
    cloud = fileio.read_cloud(out / "flat.cloud")
    assert cloud.meta["kind"] == "flat"
    assert np.all(cloud.points[:, 0] == 0.0)
    assert report["results"]["count"] == len(cloud)


def test_gen_linear_weights(tmp_path):
    code, _, out = run(tmp_path, "gen", "linear", "--eps", "0.1", "--h", "0.5")
    assert code == 0
    cloud = fileio.read_cloud(out / "linear.cloud")
    assert np.allclose(cloud.weights, math.sqrt(1.01) * 0.5**4, rtol=1e-12)


def test_gen_deleted_patch_claims_no_minimality_witness(tmp_path):
    # the linear cloud it cuts from is a minimizer's boundary; a cloud with
    # a hole is not
    argv = ["gen", "deleted-patch", "--h", "0.5", "--radius", "0.5", "--eps", "0.05"]
    code, _, out = run(tmp_path, *argv)
    assert code == 0
    cloud = fileio.read_cloud(out / "deleted-patch.cloud")
    assert cloud.meta["deleted_count"] > 0
    assert "minimality" not in cloud.meta
    assert generators.linear_cloud(generators.default_grid(2, 0.5), 0.05).meta["minimality"]


def test_gen_unknown_kind_exits_1(capsys):
    assert main(["gen", "bogus"]) == 1
    assert "unknown generator kind" in capsys.readouterr().err


def test_gen_missing_parameter_exits_1(capsys):
    assert main(["gen", "corrupted-cluster", "--h", "0.5"]) == 1
    assert "--mass" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0", "-0.01"])
@pytest.mark.parametrize(
    "kind, flag", [("corrupted-cluster", "--mass"), ("deleted-patch", "--radius")]
)
def test_gen_size_that_is_not_positive_and_finite_exits_1(tmp_path, capsys, kind, flag, value):
    # a NaN mass fails no `mass <= 0` test and would corrupt the whole cloud
    assert main(["gen", kind, "--h", "0.5", flag, value, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite and positive" in err
    assert not list(tmp_path.iterdir())


def test_gen_report_config_is_the_flags_but_paths(tmp_path):
    _, report, _ = run(tmp_path, "gen", "corrupted-cluster", "--h", "0.5", "--mass", "0.02")
    assert report["config"] == {
        "n": 2,
        "seed": 0,
        "params": {
            "kind": "corrupted-cluster",
            "h": 0.5,
            "eps": None,
            "mass": 0.02,
            "displacement": 1.0,
            "radius": None,
            "stride": 1,
            "orientation": 1,
        },
    }


@pytest.mark.parametrize("h", ["0", "nan", "inf"])
@pytest.mark.parametrize("command", [["gen", "flat"], ["minimize"]], ids=["gen", "minimize"])
def test_spacing_that_is_not_positive_and_finite_exits_1(capsys, command, h):
    # checked before the grid divides by it
    assert main([*command, "--h", h]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spacing must be positive and finite") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_deterministic_bytes(tmp_path):
    args = ["gen", "corrupted-cluster", "--h", "0.5", "--mass", "0.02", "--seed", "11"]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "corrupted-cluster.cloud").read_bytes()
    b = (tmp_path / "b" / "corrupted-cluster.cloud").read_bytes()
    assert a == b


# ------------------------------------------------------------------ excess


def test_excess_flat_zero_at_every_scale(tmp_path):
    _, _, out = run(tmp_path, "gen", "flat", "--h", "0.25")
    code, report, _ = run(tmp_path, "excess", str(out / "flat.cloud"), "--scales", "0.25,0.5,1.0,2.0")
    assert code == 0
    rows = report["results"]["scales"]
    assert [row["radius"] for row in rows] == [0.25, 0.5, 1.0, 2.0]
    assert all(row["excess"] == 0.0 for row in rows)


def test_excess_missing_file_exits_1(capsys):
    assert main(["excess", "nowhere.cloud"]) == 1
    assert "no such cloud" in capsys.readouterr().err


def test_excess_bad_center_exits_1(tmp_path, capsys):
    _, _, out = run(tmp_path, "gen", "flat", "--h", "0.5")
    assert main(["excess", str(out / "flat.cloud"), "--center", "0,0"]) == 1
    assert "center" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--scales", "nan"), ("--scales", "inf"), ("--scales", "0.5,-inf"),
     ("--center", "nan,0,0,0,0"), ("--center", "0,0,inf,0,0")],
)
def test_excess_non_finite_input_exits_1(tmp_path, capsys, flag, value):
    _, _, out = run(tmp_path, "gen", "flat", "--h", "0.5")
    capsys.readouterr()
    assert main(["excess", str(out / "flat.cloud"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag[2:] in err


# ------------------------------------------------------------------ approx


# plumbing tests only compare the driver against the library, so the
# coarse grid keeps the pipeline runs cheap
@pytest.fixture(scope="module")
def linear_cloud_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clouds") / "linear.cloud"
    spec = generators.default_grid(2, 0.5)
    fileio.write_cloud(path, generators.linear_cloud(spec, 0.05))
    return path


def test_approx_matches_library(tmp_path, linear_cloud_file):
    code, report, out = run(tmp_path, "approx", str(linear_cloud_file))
    assert code == 0
    res = report["results"]

    cloud = fileio.read_cloud(linear_cloud_file)
    spec = generators.default_grid(2, 0.5)
    lib = approx.lipschitz_approximation(cloud, spec, approx.PipelineConfig(seed=0))
    assert res["lip_estimate"] == lib.lip_estimate
    assert res["l2_gradient"] == lib.l2_gradient
    assert res["m0_count"] == len(lib.m0) == len(cloud)
    assert res["symdiff"]["total"] == lib.symdiff.total == 0.0
    phi = fileio.read_grid(out / "phi_hat.grid")
    assert np.array_equal(phi.values, lib.phi.values)


def test_approx_deterministic_hash(tmp_path, linear_cloud_file):
    _, rep1, out1 = run(tmp_path / "r1", "approx", str(linear_cloud_file), "--seed", "5")
    _, rep2, out2 = run(tmp_path / "r2", "approx", str(linear_cloud_file), "--seed", "5")
    assert rep1["hash"] == rep2["hash"]
    assert fileio.report_hash(rep1) == rep1["hash"]
    assert (out1 / "phi_hat.grid").read_bytes() == (out2 / "phi_hat.grid").read_bytes()
    _, rep3, _ = run(tmp_path / "r3", "approx", str(linear_cloud_file), "--seed", "6")
    assert rep3["hash"] != rep1["hash"]


def test_approx_config_file_roundtrip(tmp_path, linear_cloud_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta1": 0.5, "pair_budget": 500}))
    code, report, _ = run(
        tmp_path, "approx", str(linear_cloud_file), "--config", str(cfg_path), "--seed", "4"
    )
    assert code == 0
    echoed = report["results"]["config"]
    assert echoed["delta1"] == 0.5
    assert echoed["pair_budget"] == 500
    assert echoed["seed"] == 4  # --seed flows into the pipeline default


def test_approx_report_config_holds_no_path(tmp_path, linear_cloud_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta1": 0.5}))
    _, report, _ = run(tmp_path, "approx", str(linear_cloud_file), "--config", str(cfg_path))
    assert report["config"] == {"n": 2, "seed": 0, "params": {"h": None}}


def test_cloud_commands_record_the_cloud_dimension(tmp_path, capsys):
    # the cloud fixes n, so the cloud commands take no --n and report the cloud's
    _, _, out = run(tmp_path / "gen", "gen", "linear", "--n", "3", "--h", "0.5", "--eps", "0.05")
    cloud = str(out / "linear.cloud")
    for command in ("approx", "excess"):
        code, report, _ = run(tmp_path / command, command, cloud)
        assert code == 0
        assert report["config"]["n"] == 3
    for command in ("approx", "truncate", "excess"):
        with pytest.raises(SystemExit) as exc:
            main([command, cloud, "--n", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --n 2" in capsys.readouterr().err


def test_approx_malformed_config_exits_1(tmp_path, linear_cloud_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"delta1": -1.0}))
    assert main(["approx", str(linear_cloud_file), "--config", str(bad)]) == 1
    assert "malformed pipeline config" in capsys.readouterr().err

    bad.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["approx", str(linear_cloud_file), "--config", str(bad)]) == 1

    bad.write_text(json.dumps([1, 2]))
    assert main(["approx", str(linear_cloud_file), "--config", str(bad)]) == 1

    # a NaN tolerance, a fractional or empty pair budget, a fractional seed
    # and a negative gamma2 fail the config checks, before any stage runs
    capsys.readouterr()
    for data in ({"tau": math.nan}, {"pair_budget": 2.5}, {"pair_budget": 0}, {"seed": 1.5},
                 {"gamma2": -1}):
        bad.write_text(json.dumps(data))
        for command in ("approx", "truncate"):
            assert main([command, str(linear_cloud_file), "--config", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: malformed pipeline config") and err.count("\n") == 1


def test_approx_cloud_without_count_exits_1(tmp_path, linear_cloud_file, capsys):
    raw = linear_cloud_file.read_bytes()
    head, sep, payload = raw.partition(b"\nend\n")
    lines = [ln for ln in head.split(b"\n") if not ln.startswith(b"count ")]
    bad = tmp_path / "bad.cloud"
    bad.write_bytes(b"\n".join(lines) + sep + payload)
    assert main(["approx", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "count" in err


@pytest.mark.parametrize(
    "missing, damage",
    [
        ("origin", lambda meta: meta["grid"].pop("origin")),  # grid provenance
        ("lambda", lambda meta: meta.update(minimality={"r0": 0.5})),  # minimality witness
    ],
)
def test_approx_malformed_cloud_meta_exits_1(tmp_path, linear_cloud_file, capsys, missing, damage):
    cloud = fileio.read_cloud(linear_cloud_file)
    damage(cloud.meta)
    bad = tmp_path / "bad.cloud"
    fileio.write_cloud(bad, cloud)
    assert main(["approx", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


# ---------------------------------------------------------------- truncate


def test_truncate_clean_graph_keeps_disk(tmp_path, linear_cloud_file):
    code, report, out = run(tmp_path, "truncate", str(linear_cloud_file))
    assert code == 0
    res = report["results"]
    assert res["k_cells"] == res["d1_cells"] > 0
    assert res["outside_measure"] == 0.0
    assert res["coincidence_ok"]
    assert res["lip_over_theta"]["label"] == "empirical"
    mask = fileio.read_grid(out / "k_mask.grid")
    assert int(mask.values.sum()) == res["k_cells"]


def test_truncate_prints_phi_lemma_path(tmp_path, linear_cloud_file, capsys):
    code, report, _ = run(tmp_path, "truncate", str(linear_cloud_file))
    assert code == 0
    cloud = fileio.read_cloud(linear_cloud_file)
    spec = generators.default_grid(2, 0.5)
    pcfg = approx.PipelineConfig(seed=0)
    lib = approx.truncate(cloud, approx.lipschitz_approximation(cloud, spec, pcfg).phi, pcfg)
    assert f"c_L {lib.phi_lemma_path})" in capsys.readouterr().out
    # the path is printed only, so report hashes stay as they were
    assert "phi_lemma_path" not in report["results"]


@pytest.mark.parametrize(
    "gen, config, message",
    [
        # at n = 3, h = 0.5 one sample weighs 24.3 times kappa s^7 at
        # s = 0.25, so no sample can pass the smallest scan cylinder
        (["--n", "3", "--h", "0.5"], {}, "selection is empty at delta1=0.1: a sample's weight is "
         "24.3x the mass kappa s^7 of the smallest scan cylinder (s = 0.25); use larger scales "
         "in --config or a finer --h"),
        # at n = 2, h = 0.25 one weighs 0.48 times kappa s^5: the threshold
        # alone empties the selection
        (["--h", "0.25"], {"delta1": 1e-9},
         "selection is empty at delta1=1e-09; the cloud is too far from flat"),
    ],
)
def test_truncate_empty_selection_names_its_cause(tmp_path, capsys, gen, config, message):
    assert main(["gen", "linear", *gen, "--eps", "0.05", "--out", str(tmp_path)]) == 0
    (tmp_path / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    argv = ["truncate", str(tmp_path / "linear.cloud"), "--config", str(tmp_path / "config.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "truncate_report.json").exists()


def test_approx_empty_selection_names_its_cause_and_exits_0(tmp_path, capsys):
    # the cause truncate raises, printed as a warning: approx still reports
    # the degenerate zero graph
    assert main(["gen", "linear", "--n", "3", "--h", "0.5", "--eps", "0.05", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code, report, _ = run(tmp_path, "approx", str(tmp_path / "linear.cloud"))
    assert code == 0
    assert report["results"]["degenerate"] and report["results"]["m0_count"] == 0
    out = capsys.readouterr()
    assert "selected 0/6144 samples" in out.out
    assert out.err == (
        "warning: selection is empty at delta1=0.1: a sample's weight is 24.3x the mass kappa "
        "s^7 of the smallest scan cylinder (s = 0.25); use larger scales in --config or a finer --h\n"
    )


@pytest.mark.parametrize("command", ["approx", "truncate"])
@pytest.mark.parametrize("edge", ["wider_than_the_grid", "in_the_outer_half_of_edge_cells"])
def test_samples_at_the_grid_edge_exit_0(tmp_path, command, edge):
    # a sample spec.locate puts outside the grid is left out of the fit
    # and of the selection, and one in the outer half of an edge cell
    # interpolates to the edge value, where both once raised
    # "interpolation point outside grid domain"
    if edge == "wider_than_the_grid":
        wide = graph.GridSpec.centered(2, (1.4, 1.4, 1.4, 1.8), 0.25)
        cloud = generators.linear_cloud(wide, 0.05)
        del cloud.meta["grid"]
        argv = ["--h", "0.25"]
    else:
        cloud = generators.linear_cloud(generators.default_grid(2, 0.25), 0.05)
        cloud.points += 0.06
        argv = []
    path = tmp_path / "edge.cloud"
    fileio.write_cloud(path, cloud)
    code, report, _ = run(tmp_path, command, str(path), *argv)
    assert code == 0
    if command == "approx":
        assert report["results"]["m0_matched"]
        if edge == "wider_than_the_grid":  # the 6,144 of 24,192 samples on the --h grid
            assert report["results"]["m0_count"] == 6144


# ---------------------------------------------------------------- minimize


def test_minimize_reports_certificate(tmp_path):
    code, report, out = run(
        tmp_path, "minimize", "--h", "0.25", "--height", "0.3", "--noise", "0.05", "--seed", "2"
    )
    assert code == 0
    res = report["results"]
    assert res["converged"]
    assert res["trace_monotone"]
    assert abs(res["calibration_gap"]) < 1e-6
    phi = fileio.read_grid(out / "phi.grid")
    assert np.all(np.isfinite(phi.values))


@pytest.mark.parametrize("rows", [None, 1000])  # node rows per block; None: the default budget
def test_minimize_start_is_the_whole_grid_draw(monkeypatch, rows):
    # the random start is drawn per block of nodes in node order, and the
    # blocks' draws are one draw of a normal per node: the problem's values
    # are those of the whole-grid draw, bit for bit
    from hlip import cli, optimize

    spec = generators.default_grid(2, 0.25)
    if rows:
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 2 * spec.n * rows)
        assert len(list(core._row_blocks(spec.size, 2 * spec.n))) > 2
    problems = []

    def recording(*args, **kwargs):
        problems.append(optimize.dirichlet_problem(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(cli, "dirichlet_problem", recording)
    argv = ["--h", "0.25", "--eps", "0.1", "--height", "0.3", "--noise", "0.05", "--seed", "2"]
    assert main(["minimize", *argv, "--max-iter", "2"]) == 0
    (prob,) = problems
    nodes, fixed = spec.nodes(), spec.boundary_mask(3).ravel()
    draw = 0.3 + 0.05 * np.random.default_rng(2).standard_normal(spec.size)
    want = np.where(fixed, 0.3 + 0.1 * nodes[:, spec.n - 1], draw)
    assert prob.initial.values.ravel().tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", ["-1", "nan"])
def test_minimize_rejects_a_noise_that_is_no_stddev(capsys, noise):
    assert main(["minimize", "--h", "0.25", "--noise", noise]) == 1
    assert "noise" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--max-iter", "-3")])
def test_minimize_rejects_a_stopping_rule_that_never_runs(capsys, flag, value):
    # either would stop after 0 iterations and report success
    assert main(["minimize", "--h", "0.25", "--noise", "0.1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("noise", ["1e200", "1e150"])
def test_minimize_rejects_a_start_of_infinite_energy(tmp_path, capsys, noise):
    # the noisy start overflows the area element: one error line, exit 1,
    # no report, and no RuntimeWarning from any thread of the first pass
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["minimize", "--h", "0.25", "--noise", noise, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: start energy is inf")
    assert not (out / "minimize_report.json").exists()


def test_minimize_rejects_a_grid_without_free_nodes(capsys):
    # at h = 0.5 the grid is (4, 4, 4, 6) and the 3-layer rim fixes all of it
    assert main(["minimize", "--h", "0.5", "--noise", "1"]) == 1
    assert "no free nodes" in capsys.readouterr().err


# ------------------------------------------------------------------ verify


def test_verify_small_suite_passes(tmp_path):
    code, report, _ = run(tmp_path, "verify", "--cases", "2", "--balls", "3", "--seed", "1")
    assert code == 0
    res = report["results"]
    assert res["passed"]
    names = {row["check"] for row in res["checks"]}
    assert names == {
        "bv_random_fields",
        "bv_tight_on_constant_gradient",
        "disk_lemma",
        "phi_lemma_constant",
        "poincare_ratio",
        "sandwich_inclusions",
        "vitali_5r",
        "height_bound_ratio",
    }
    assert report["config"]["n"] == 2


@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_has_no_n_flag(capsys, n):
    # the battery is pinned to n = 2, so verify offers no --n at all
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", n])
    assert exc.value.code == 1
    assert f"unrecognized arguments: --n {n}" in capsys.readouterr().err


def test_verify_failure_exits_2(monkeypatch):
    broken = lambda f, region=None: {"lhs": 1.0, "rhs": 0.0, "slack": -1.0, "passed": False}
    monkeypatch.setattr(approx, "check_bv", broken)
    assert main(["verify", "--cases", "1", "--balls", "1"]) == 2


def test_extension_stall_exits_2(linear_cloud_file, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise graph.ExtensionConvergenceError(1e-3, 100)

    monkeypatch.setattr(approx, "extend_lipschitz", stalled)
    assert main(["approx", str(linear_cloud_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: extension fixed point stalled")
    assert "Traceback" not in err


def test_lip_contract_violation_exits_2(linear_cloud_file, monkeypatch, capsys):
    monkeypatch.setattr(approx, "lipschitz_estimate", lambda *args, **kwargs: 1.5)
    assert main(["approx", str(linear_cloud_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output graph violates the unit Lipschitz contract")
    assert "Traceback" not in err


def test_verify_rejects_bad_sizes(capsys):
    assert main(["verify", "--cases", "0"]) == 1
    assert "positive" in capsys.readouterr().err


# ------------------------------------------------------------------ driver


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hlip", "constants", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kappa_2" in proc.stdout
    assert (tmp_path / "constants_report.json").exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["approx"])  # missing the cloud argument
    assert exc.value.code == 1


def test_config_is_offered_only_where_a_pipeline_runs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", "x"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        lambda cloud, there, taken: ["approx", str(there)],  # a directory as the cloud
        lambda cloud, there, taken: ["approx", str(cloud), "--config", str(there)],
        lambda cloud, there, taken: ["constants", "--out", str(taken)],  # a file as --out
    ],
    ids=["cloud-directory", "config-directory", "out-file"],
)
def test_path_errors_exit_1_on_one_line(tmp_path, linear_cloud_file, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(argv(linear_cloud_file, tmp_path, taken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
