"""Round trips and hashing for the on-disk grid, cloud and report formats."""

import json

import numpy as np
import pytest

from hlip import fileio, generators
from hlip.graph import GridFunction, GridSpec


@pytest.fixture()
def spec():
    return GridSpec.centered(2, 1.0, 0.25)


def random_grid(spec, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction(spec, rng.standard_normal(spec.counts))


def test_grid_round_trip_exact(tmp_path, spec):
    f = random_grid(spec)
    path = tmp_path / "f.grid"
    fileio.write_grid(path, f)
    g = fileio.read_grid(path)
    assert g.spec == spec
    assert g.values.tobytes() == f.values.tobytes()


def test_grid_round_trip_awkward_origin(tmp_path):
    # header stores floats at full precision; an origin that has no short
    # decimal form must still come back bit for bit
    spec = GridSpec(2, (0.1, -1 / 3, np.pi, 7e-13), 0.05, (3, 4, 2, 5))
    f = random_grid(spec, seed=3)
    path = tmp_path / "f.grid"
    fileio.write_grid(path, f)
    g = fileio.read_grid(path)
    assert g.spec == spec
    assert np.array_equal(g.values, f.values)


def test_grid_double_write_identical_bytes(tmp_path, spec):
    f = random_grid(spec, seed=1)
    p1, p2 = tmp_path / "a.grid", tmp_path / "b.grid"
    fileio.write_grid(p1, f)
    fileio.write_grid(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_bad_magic(tmp_path, spec):
    path = tmp_path / "f.grid"
    fileio.write_grid(path, random_grid(spec))
    raw = path.read_bytes()
    path.write_bytes(b"HLIPCLOUD" + raw[len(b"HLIPGRID"):])
    with pytest.raises(ValueError, match="not a HLIPGRID"):
        fileio.read_grid(path)


def test_grid_bad_version(tmp_path, spec):
    path = tmp_path / "f.grid"
    fileio.write_grid(path, random_grid(spec))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"HLIPGRID 1", b"HLIPGRID 99", 1))
    with pytest.raises(ValueError, match="version"):
        fileio.read_grid(path)


def test_grid_truncated_payload(tmp_path, spec):
    path = tmp_path / "f.grid"
    fileio.write_grid(path, random_grid(spec))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        fileio.read_grid(path)


def test_grid_truncated_header(tmp_path):
    path = tmp_path / "f.grid"
    path.write_bytes(b"HLIPGRID 1\nn 2\n")
    with pytest.raises(ValueError, match="truncated"):
        fileio.read_grid(path)


def test_header_missing_field_names_it(tmp_path, spec):
    path = tmp_path / "f.grid"
    path.write_bytes(b"HLIPGRID 1\nn 2\nh 0.25\nend\n")
    with pytest.raises(ValueError, match="lacks origin, counts"):
        fileio.read_grid(path)
    path = tmp_path / "f.cloud"
    fileio.write_cloud(path, generators.flat_cloud(spec))
    path.write_bytes(path.read_bytes().replace(b"meta {", b"meta [{", 1).replace(b"}\nend", b"}]\nend", 1))
    with pytest.raises(ValueError, match="meta must be a JSON object"):
        fileio.read_cloud(path)


def test_cloud_round_trip_exact(tmp_path, spec):
    # the cluster generator carries the richest meta: nested params,
    # an index list and numpy scalars all have to survive the header
    cloud = generators.corrupted_cluster_cloud(spec, mass=0.25, displacement=1.0)
    path = tmp_path / "c.cloud"
    fileio.write_cloud(path, cloud)
    back = fileio.read_cloud(path)
    assert back.n == cloud.n
    assert back.points.tobytes() == cloud.points.tobytes()
    assert back.normals.tobytes() == cloud.normals.tobytes()
    assert back.weights.tobytes() == cloud.weights.tobytes()
    assert back.meta == json.loads(fileio.canonical_json(cloud.meta))


def test_cloud_double_write_identical_bytes(tmp_path, spec):
    cloud = generators.linear_cloud(spec, 0.05)
    p1, p2 = tmp_path / "a.cloud", tmp_path / "b.cloud"
    fileio.write_cloud(p1, cloud)
    fileio.write_cloud(p2, cloud)
    assert p1.read_bytes() == p2.read_bytes()


def test_cloud_truncated_payload(tmp_path, spec):
    path = tmp_path / "c.cloud"
    fileio.write_cloud(path, generators.flat_cloud(spec, stride=4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="payload"):
        fileio.read_cloud(path)


def test_report_round_trip(tmp_path):
    report = {
        "command": "excess",
        "seed": 7,
        "scales": [0.25, 0.5, 1.0],
        "values": {"excess": [0.0, 0.0, 0.0], "count": 2240},
        "flags": {"converged": True, "note": None},
        "wall_time_s": 1.25,
    }
    path = tmp_path / "r.json"
    fileio.write_report(path, report)
    assert fileio.read_report(path) == report


def test_report_hash_ignores_wall_time():
    report = {"command": "approx", "seed": 0, "excess": 0.125, "wall_time_s": 3.5}
    other = dict(report, wall_time_s=99.0)
    assert fileio.report_hash(report) == fileio.report_hash(other)
    changed = dict(report, excess=0.126)
    assert fileio.report_hash(changed) != fileio.report_hash(report)


def test_report_hash_is_fixed_point():
    report = {"command": "approx", "seed": 0, "excess": 0.125, "wall_time_s": 3.5}
    report["hash"] = fileio.report_hash(report)
    assert fileio.report_hash(report) == report["hash"]


def test_report_hash_insensitive_to_key_order():
    a = {"b": 1, "a": [1, 2], "wall_time_s": 0.0}
    b = {"a": [1, 2], "wall_time_s": 5.0, "b": 1}
    assert fileio.report_hash(a) == fileio.report_hash(b)


def test_canonical_json_normalizes_numpy():
    obj = {
        "i": np.int64(3),
        "x": np.float64(0.5),
        "flag": np.bool_(True),
        "arr": np.arange(3),
        "tup": (1, 2.5),
    }
    assert json.loads(fileio.canonical_json(obj)) == {
        "i": 3,
        "x": 0.5,
        "flag": True,
        "arr": [0, 1, 2],
        "tup": [1, 2.5],
    }


def test_canonical_json_rejects_opaque_objects():
    with pytest.raises(TypeError, match="cannot serialize"):
        fileio.canonical_json({"bad": object()})
