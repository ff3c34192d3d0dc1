"""Instance and result files: JSON schemas, validation, digests, round-trips.

Instances describe either a Steiner problem (terminals) or a coverage problem
(a compact-set descriptor plus the ball radius r).  Results carry the solved
network/tree, a verification report, and solver metadata, and are bound to
their instance by a content digest.  All floats are serialized with 17
significant digits so every double survives a round-trip bit-exactly.
Coordinate and edge tables are written a table at a time, with one
%-format per array, in bytes identical to the item-by-item recursion.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .mdm import CompactSetDescriptor

SCHEMA_VERSION = "1"

_PROBLEMS = ("steiner", "mdm")
_DESCRIPTOR_KINDS = ("circle", "stadium", "polygon", "points", "samples")


class IoError(ValueError):
    """Malformed or inconsistent instance/result data; names the bad field."""


# ---------------------------------------------------------------------------
# canonical JSON


def _table(arr: np.ndarray, cell: str) -> str:
    """A whole array with one %-format: ``cell`` per item, nesting from the shape."""
    template = cell
    for n in reversed(arr.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(arr.ravel().tolist())


def _render(obj, out: list) -> None:
    # Fast path, byte for byte what the recursion below writes: an array of
    # finite floats (vertex coordinates) or of integers (edges) is written a
    # table at a time.
    if isinstance(obj, np.ndarray) and obj.size:
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            out.append(_table(obj, "%.17g"))
            return
        if obj.dtype.kind in "iu":
            out.append(_table(obj, "%d"))
            return
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isfinite(v):
            out.append(f"{v:.17g}")
        else:  # match json.loads' spelling so non-finite values round-trip
            out.append("NaN" if np.isnan(v) else ("Infinity" if v > 0 else "-Infinity"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False) + ":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(items):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise IoError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_json(obj) -> bytes:
    """Deterministic UTF-8 JSON: sorted keys, 17-significant-digit floats."""
    out: list = []
    _render(obj, out)
    return "".join(out).encode("utf-8")


def _load_json(data) -> dict:
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IoError(f"not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise IoError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise IoError("top level: expected a JSON object")
    return obj


# ---------------------------------------------------------------------------
# instances


@dataclass
class InstanceFile:
    """A validated problem instance."""

    schema_version: str
    dim: int
    problem: str  # "steiner" | "mdm"
    terminals: np.ndarray | None = None
    descriptor: CompactSetDescriptor | None = None
    r: float | None = None

    def to_obj(self) -> dict:
        obj = {
            "schema_version": self.schema_version,
            "dim": self.dim,
            "problem": self.problem,
        }
        if self.problem == "steiner":
            obj["terminals"] = self.terminals
        else:
            obj["descriptor"] = _descriptor_to_obj(self.descriptor)
            obj["r"] = self.r
        return obj


def _descriptor_to_obj(desc: CompactSetDescriptor) -> dict:
    if desc.kind == "circle":
        return {"kind": "circle", "radius": desc.radius}
    if desc.kind == "stadium":
        return {"kind": "stadium", "radius": desc.radius, "seg_len": desc.seg_len}
    if desc.kind == "polygon":
        return {"kind": "polygon", "vertices": desc.pts}
    if desc.kind in ("points", "samples"):
        return {"kind": desc.kind, "points": desc.pts}
    raise IoError(f"field 'descriptor.kind': unsupported kind {desc.kind!r}")


def _is_table(raw: list, width: int, kinds: set) -> bool:
    """Whether ``raw`` is a list of ``width``-item lists of ``kinds``, with no loop per row.

    Callers run their row loop, which names the bad field, only when it fails.
    """
    cells = chain.from_iterable(raw)
    return set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width} and set(map(type, cells)) <= kinds


def _coords_array(raw, name: str, dim: int, min_rows: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) < min_rows:
        least = f" >= {min_rows}" if min_rows else ""
        raise IoError(f"field '{name}': expected a list of{least} coordinate lists")
    if not _is_table(raw, dim, {int, float}):
        for i, row in enumerate(raw):
            if not isinstance(row, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
            ):
                raise IoError(f"field '{name}[{i}]': expected a list of numbers")
            if len(row) != dim:
                raise IoError(
                    f"field '{name}[{i}]': dimension mismatch, expected {dim} coordinates, got {len(row)}"
                )
    try:
        arr = np.asarray(raw, dtype=float)
        finite = np.isfinite(arr).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise IoError(f"field '{name}': coordinates must be finite")
    return arr


def _index_pairs_ok(raw: list, n: int) -> bool:
    """Whether ``raw`` is a list of [int, int] pairs in 0..n-1, checked array-wide."""
    if not _is_table(raw, 2, {int}):
        return False
    try:
        e = np.asarray(raw, dtype=np.int64)
    except OverflowError:  # beyond int64, so out of range
        return False
    return bool(((e >= 0) & (e < n)).all())


def _parse_descriptor(raw, dim: int) -> CompactSetDescriptor:
    if not isinstance(raw, dict):
        raise IoError("field 'descriptor': expected an object")
    kind = raw.get("kind")
    if kind not in _DESCRIPTOR_KINDS:
        raise IoError(
            f"field 'descriptor.kind': expected one of {list(_DESCRIPTOR_KINDS)}, got {kind!r}"
        )
    if kind in ("circle", "stadium"):
        radius = raw.get("radius")
        if not isinstance(radius, (int, float)) or isinstance(radius, bool) or radius <= 0:
            raise IoError("field 'descriptor.radius': expected a positive number")
        if kind == "circle":
            return CompactSetDescriptor.circle(float(radius))
        seg_len = raw.get("seg_len")
        if not isinstance(seg_len, (int, float)) or isinstance(seg_len, bool) or seg_len < 0:
            raise IoError("field 'descriptor.seg_len': expected a number >= 0")
        return CompactSetDescriptor.stadium(float(radius), float(seg_len))
    if kind == "polygon":
        verts = _coords_array(raw.get("vertices"), "descriptor.vertices", dim, 3)
        return CompactSetDescriptor.polygon(verts)
    pts = _coords_array(raw.get("points"), "descriptor.points", dim, 1)
    return CompactSetDescriptor.points(pts) if kind == "points" else CompactSetDescriptor.samples(pts)


def parse_instance(data) -> InstanceFile:
    """Validate UTF-8 JSON bytes into an InstanceFile; errors name the field."""
    obj = _load_json(data)
    version = obj.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, str):
        raise IoError("field 'schema_version': expected a string")
    problem = obj.get("problem")
    if problem not in _PROBLEMS:
        raise IoError(f"field 'problem': expected one of {list(_PROBLEMS)}, got {problem!r}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise IoError("field 'dim': expected a positive integer")

    if problem == "steiner":
        if "terminals" not in obj:
            raise IoError("field 'terminals': missing (required for steiner instances)")
        terminals = _coords_array(obj["terminals"], "terminals", dim, 2)
        return InstanceFile(version, dim, problem, terminals=terminals)

    if dim != 2:
        raise IoError("field 'dim': coverage instances are planar, expected 2")
    if "descriptor" not in obj:
        raise IoError("field 'descriptor': missing (required for mdm instances)")
    descriptor = _parse_descriptor(obj["descriptor"], dim)
    if "r" not in obj:
        raise IoError("field 'r': missing (required for mdm instances)")
    r = obj["r"]
    if not isinstance(r, (int, float)) or isinstance(r, bool) or not r > 0:
        raise IoError("field 'r': expected a positive number")
    return InstanceFile(version, dim, problem, descriptor=descriptor, r=float(r))


def serialize_instance(inst: InstanceFile) -> bytes:
    return canonical_json(inst.to_obj())


def instance_digest(inst: InstanceFile) -> str:
    """Content digest binding results to the instance they solve."""
    return "sha256:" + hashlib.sha256(serialize_instance(inst)).hexdigest()


# ---------------------------------------------------------------------------
# results


@dataclass
class ResultFile:
    """A solved instance: geometry, verification report, solver metadata."""

    schema_version: str
    instance_digest: str
    problem: str
    dim: int
    length: float
    vertices: np.ndarray
    edges: list[tuple[int, int]]  # parsed: int tuples; built: any (E, 2) int pairs
    n_terminals: int | None = None  # trees: vertices[:n_terminals] are inputs
    r: float | None = None  # coverage results: the ball radius
    report: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = {
            "schema_version": self.schema_version,
            "instance_digest": self.instance_digest,
            "problem": self.problem,
            "dim": self.dim,
            "length": self.length,
            "report": self.report,
            "solver": self.solver,
        }
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        body = {"vertices": self.vertices, "edges": edges}
        if self.problem == "steiner":
            body["topology"] = {
                "n_terminals": self.n_terminals,
                "n_steiner": len(self.vertices) - self.n_terminals,
                "edges": edges,
            }
            obj["tree"] = body
        else:
            obj["network"] = body
            obj["r"] = self.r
        return obj


def serialize_result(res: ResultFile) -> bytes:
    return canonical_json(res.to_obj())


def parse_result(data) -> ResultFile:
    """Validate result JSON; errors name the offending field."""
    obj = _load_json(data)
    version = obj.get("schema_version", SCHEMA_VERSION)
    problem = obj.get("problem")
    if problem not in _PROBLEMS:
        raise IoError(f"field 'problem': expected one of {list(_PROBLEMS)}, got {problem!r}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise IoError("field 'dim': expected a positive integer")
    digest = obj.get("instance_digest")
    if not isinstance(digest, str):
        raise IoError("field 'instance_digest': expected a string")
    length = obj.get("length")
    if not isinstance(length, (int, float)) or isinstance(length, bool):
        raise IoError("field 'length': expected a number")

    key = "tree" if problem == "steiner" else "network"
    body = obj.get(key)
    if not isinstance(body, dict):
        raise IoError(f"field '{key}': expected an object")
    vertices = _coords_array(body.get("vertices"), f"{key}.vertices", dim, 1)
    raw_edges = body.get("edges")
    if not isinstance(raw_edges, list):
        raise IoError(f"field '{key}.edges': expected a list of index pairs")
    if not _index_pairs_ok(raw_edges, len(vertices)):
        for i, e in enumerate(raw_edges):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
                or not all(0 <= x < len(vertices) for x in e)
            ):
                raise IoError(f"field '{key}.edges[{i}]': expected a valid vertex index pair")
    edges = list(map(tuple, raw_edges))

    n_terminals = None
    r = None
    if problem == "steiner":
        topology = body.get("topology", {})
        if not isinstance(topology, dict):
            raise IoError("field 'tree.topology': expected an object")
        n_terminals = topology.get("n_terminals")
        if type(n_terminals) is not int or not 1 <= n_terminals <= len(vertices):
            raise IoError("field 'tree.topology.n_terminals': expected a valid count")
    else:
        r = obj.get("r")
        if not isinstance(r, (int, float)) or isinstance(r, bool) or not r > 0:
            raise IoError("field 'r': expected a positive number")
        r = float(r)

    report = obj.get("report", {})
    solver = obj.get("solver", {})
    if not isinstance(report, dict):
        raise IoError("field 'report': expected an object")
    if "energetic" in report:  # render_svg draws these markers
        _coords_array(report["energetic"], "report.energetic", dim, 0)
    if not isinstance(solver, dict):
        raise IoError("field 'solver': expected an object")
    return ResultFile(
        version,
        digest,
        problem,
        dim,
        float(length),
        vertices,
        edges,
        n_terminals=n_terminals,
        r=r,
        report=report,
        solver=solver,
    )
