"""On-disk formats: grid and cloud payloads, canonical JSON reports.

Grids and clouds are stored with a short self-describing text header
followed by the raw little-endian float64 payload, so values round-trip
byte for byte.  Reports are canonical JSON (sorted keys); their hash
excludes the wall-time field so reruns with the same seed compare equal.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .graph import GridFunction, GridSpec
from .surface import BoundaryCloud

__all__ = [
    "write_grid",
    "read_grid",
    "write_cloud",
    "read_cloud",
    "canonical_json",
    "write_report",
    "read_report",
    "report_hash",
]

GRID_MAGIC = "HLIPGRID"
CLOUD_MAGIC = "HLIPCLOUD"
FORMAT_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=1)


def _g17(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in values)


def _header_lines(fh, magic: str, required: tuple[str, ...]) -> dict:
    first = fh.readline().decode("ascii").split()
    if len(first) != 2 or first[0] != magic:
        raise ValueError(f"not a {magic} file")
    if int(first[1]) != FORMAT_VERSION:
        raise ValueError(f"unsupported {magic} version {first[1]}")
    fields = {}
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("truncated header")
        line = line.decode("ascii").rstrip("\n")
        if line == "end":
            missing = [key for key in required if key not in fields]
            if missing:
                raise ValueError(f"{magic} header lacks {', '.join(missing)}")
            return fields
        key, _, rest = line.partition(" ")
        fields[key] = rest


def write_grid(path, f: GridFunction) -> None:
    spec = f.spec
    with open(path, "wb") as fh:
        fh.write(f"{GRID_MAGIC} {FORMAT_VERSION}\n".encode("ascii"))
        fh.write(f"n {spec.n}\n".encode("ascii"))
        fh.write(f"h {spec.h:.17g}\n".encode("ascii"))
        fh.write(f"origin {_g17(spec.origin)}\n".encode("ascii"))
        fh.write(("counts " + " ".join(str(c) for c in spec.counts) + "\n").encode("ascii"))
        fh.write("end\n".encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        fields = _header_lines(fh, GRID_MAGIC, ("n", "h", "origin", "counts"))
        n = int(fields["n"])
        h = float(fields["h"])
        origin = tuple(float(v) for v in fields["origin"].split())
        counts = tuple(int(v) for v in fields["counts"].split())
        spec = GridSpec(n, origin, h, counts)
        payload = fh.read()
    expected = 8 * spec.size
    if len(payload) != expected:
        raise ValueError(f"grid payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(counts).copy()
    return GridFunction(spec, values)


def write_cloud(path, cloud: BoundaryCloud) -> None:
    meta_line = json.dumps(_jsonable(cloud.meta), sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(f"{CLOUD_MAGIC} {FORMAT_VERSION}\n".encode("ascii"))
        fh.write(f"n {cloud.n}\n".encode("ascii"))
        fh.write(f"count {len(cloud)}\n".encode("ascii"))
        fh.write(("meta " + meta_line + "\n").encode("ascii"))
        fh.write("end\n".encode("ascii"))
        for arr in (cloud.points, cloud.normals, cloud.weights):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_cloud(path) -> BoundaryCloud:
    with open(path, "rb") as fh:
        fields = _header_lines(fh, CLOUD_MAGIC, ("n", "count", "meta"))
        n = int(fields["n"])
        count = int(fields["count"])
        meta = json.loads(fields["meta"])
        if not isinstance(meta, dict):
            raise ValueError("cloud meta must be a JSON object")
        payload = fh.read()
    cols = (2 * n + 1) + 2 * n + 1
    expected = 8 * count * cols
    if len(payload) != expected:
        raise ValueError(f"cloud payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f8")
    a = count * (2 * n + 1)
    b = a + count * 2 * n
    points = flat[:a].reshape(count, 2 * n + 1).copy()
    normals = flat[a:b].reshape(count, 2 * n).copy()
    weights = flat[b:].copy()
    return BoundaryCloud(n, points, normals, weights, meta)


def write_report(path, report: dict) -> None:
    Path(path).write_text(canonical_json(report) + "\n", encoding="ascii")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="ascii"))


def report_hash(report: dict) -> str:
    """sha256 of the canonical report, skipping timing and the hash itself.

    Stripping the embedded hash makes the function a fixed point: hashing
    a written report reproduces the hash stored inside it.
    """
    clean = {k: v for k, v in report.items() if k not in ("wall_time_s", "hash")}
    return hashlib.sha256(canonical_json(clean).encode("ascii")).hexdigest()
