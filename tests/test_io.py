"""Instance/result schemas: parsing, validation messages, digests, round-trips."""

import json
import math

import numpy as np
import pytest

from minnet.io import (
    SCHEMA_VERSION,
    InstanceFile,
    IoError,
    ResultFile,
    canonical_json,
    instance_digest,
    parse_instance,
    parse_result,
    serialize_instance,
    serialize_result,
)
from minnet.cli import _mdm_result
from minnet.geometry import DEFAULT_TOL
from minnet.mdm import CompactSetDescriptor, horseshoe_circle
from minnet.steiner import solve_exact

MINIMAL_STEINER = {"dim": 2, "problem": "steiner", "terminals": [[0, 0], [1, 0]]}

MDM_CIRCLE = {
    "schema_version": "1",
    "dim": 2,
    "problem": "mdm",
    "descriptor": {"kind": "circle", "radius": 3.0},
    "r": 1.0,
}


def _bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_floats_survive_round_trip_exactly(self):
        values = [0.1 + 0.2, 1.0 / 3.0, np.pi, 1e300, -2.5e-17, 6.739060308144989]
        parsed = json.loads(canonical_json(values))
        assert parsed == values  # bit-exact, not approximate

    def test_ints_stay_ints(self):
        assert canonical_json([3, True, None]) == b"[3,true,null]"

    def test_non_finite_floats_round_trip(self):
        data = canonical_json([float("nan"), float("inf"), float("-inf")])
        assert data == b"[NaN,Infinity,-Infinity]"
        back = json.loads(data)
        assert math.isnan(back[0]) and back[1] == math.inf and back[2] == -math.inf

    def test_numpy_arrays_become_lists(self):
        got = canonical_json({"v": np.array([[1.5, 2.0]])})
        assert got == b'{"v":[[1.5,2]]}'

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[-0.0, 0.0], [5e-324, -2.2250738585072e-308], [1e308, -1.0 / 3.0]]),
            np.array([np.pi, np.inf, -0.0]),
            np.array([[np.nan, 1.0], [-np.inf, 2.0]]),
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).reshape(1, 2, 3),
            np.array([[3, -4], [0, 7]]),
            np.arange(5, dtype=np.int32),
            np.array([1.5, 2.25], dtype=np.float32),
            np.empty((0, 2)),
            np.empty((2, 0)),
            np.array([[0, 1], [2**62, -(2**63)]], dtype=np.int64),
            np.array([[1, -2], [3, 2**31 - 1]], dtype=np.int32),
            np.array([[0, 2**64 - 1], [7, 8]], dtype=np.uint64),
            np.empty((0, 2), dtype=np.int64),
            np.array([[-0.0, 5e-324], [1.5, -0.0], [5e-324, -5e-324]]),
        ],
    )
    def test_array_fast_path_matches_the_recursion(self, arr):
        # A nested list of NumPy scalars goes through the recursive renderer
        # item by item; the array itself may take the row-wise fast path.
        as_scalars = arr.tolist()
        if arr.dtype.kind == "f":
            as_scalars = np.vectorize(np.float64, otypes=[object])(arr).tolist()
        assert canonical_json({"v": arr}) == canonical_json({"v": as_scalars})

    def test_int_rows_fast_path_matches_the_recursion(self):
        rows = [[0, 1], [1, -2], [3, 10**20], [], [4, 5, 6]]
        slow = [[np.int64(v) if abs(v) < 2**62 else v for v in row] for row in rows]
        assert canonical_json({"e": rows}) == canonical_json({"e": slow})
        assert canonical_json([[1, 2], [3, 4]]) == b"[[1,2],[3,4]]"
        assert canonical_json([[1, True], [2.5, 3]]) == b"[[1,true],[2.5,3]]"
        assert canonical_json([(1, 2), [3, None]]) == b"[[1,2],[3,null]]"

    @pytest.mark.parametrize("problem", ["mdm", "steiner"])
    def test_result_tables_match_the_recursion(self, problem):
        # A real result written table at a time, against the same object
        # rebuilt from Python scalars, which only the recursion writes.
        if problem == "mdm":
            inst = parse_instance(_bytes(MDM_CIRCLE))
            res = _mdm_result(inst, horseshoe_circle(3.0, 1.0)[0], DEFAULT_TOL, {"name": "horseshoe"})
            assert len(res.report["energetic"]) > 0
        else:
            pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.9], [0.9, 0.8], [0.2, 0.5]])
            tree = solve_exact(pts).tree
            res = ResultFile(
                SCHEMA_VERSION, "sha256:" + "0" * 64, "steiner", 2, tree.length, tree.coords(),
                list(tree.topology.edges), n_terminals=len(pts),
            )

        def plain(obj):
            if isinstance(obj, dict):
                return {k: plain(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [plain(v) for v in obj]
            return obj.tolist() if isinstance(obj, np.ndarray) else obj

        obj = res.to_obj()
        assert canonical_json(obj) == canonical_json(plain(obj))

    def test_unserializable_value_rejected(self):
        with pytest.raises(IoError):
            canonical_json({"x": object()})


class TestParseInstance:
    def test_minimal_steiner(self):
        inst = parse_instance(_bytes(MINIMAL_STEINER))
        assert inst.schema_version == SCHEMA_VERSION
        assert inst.problem == "steiner"
        assert inst.dim == 2
        assert inst.terminals.shape == (2, 2)
        assert inst.r is None and inst.descriptor is None

    def test_mdm_circle(self):
        inst = parse_instance(_bytes(MDM_CIRCLE))
        assert inst.problem == "mdm"
        assert inst.descriptor.kind == "circle"
        assert inst.descriptor.radius == 3.0
        assert inst.r == 1.0

    def test_mdm_missing_r_names_the_field(self):
        bad = {k: v for k, v in MDM_CIRCLE.items() if k != "r"}
        with pytest.raises(IoError, match="'r'"):
            parse_instance(_bytes(bad))

    def test_mixed_terminal_lengths_is_dimension_mismatch(self):
        bad = dict(MINIMAL_STEINER, terminals=[[0, 0], [1, 0, 5]])
        with pytest.raises(IoError, match="dimension mismatch"):
            parse_instance(_bytes(bad))

    def test_terminals_must_match_declared_dim(self):
        bad = dict(MINIMAL_STEINER, dim=3)
        with pytest.raises(IoError, match="terminals"):
            parse_instance(_bytes(bad))

    def test_unknown_problem(self):
        with pytest.raises(IoError, match="'problem'"):
            parse_instance(_bytes(dict(MINIMAL_STEINER, problem="mst")))

    def test_missing_terminals(self):
        with pytest.raises(IoError, match="'terminals'"):
            parse_instance(_bytes({"dim": 2, "problem": "steiner"}))

    def test_single_terminal_rejected(self):
        with pytest.raises(IoError, match="terminals"):
            parse_instance(_bytes(dict(MINIMAL_STEINER, terminals=[[0, 0]])))

    def test_non_numeric_coordinates(self):
        with pytest.raises(IoError, match="terminals"):
            parse_instance(_bytes(dict(MINIMAL_STEINER, terminals=[[0, 0], ["x", 1]])))

    def test_non_finite_coordinates(self):
        raw = b'{"dim": 2, "problem": "steiner", "terminals": [[0, 0], [1e999, 0]]}'
        with pytest.raises(IoError, match="finite"):
            parse_instance(raw)

    def test_bad_dim(self):
        with pytest.raises(IoError, match="'dim'"):
            parse_instance(_bytes(dict(MINIMAL_STEINER, dim=0)))

    def test_mdm_requires_planar(self):
        with pytest.raises(IoError, match="'dim'"):
            parse_instance(_bytes(dict(MDM_CIRCLE, dim=3)))

    def test_nonpositive_r(self):
        with pytest.raises(IoError, match="'r'"):
            parse_instance(_bytes(dict(MDM_CIRCLE, r=0.0)))

    def test_bad_descriptor_kind(self):
        bad = dict(MDM_CIRCLE, descriptor={"kind": "blob", "radius": 1.0})
        with pytest.raises(IoError, match="descriptor.kind"):
            parse_instance(_bytes(bad))

    def test_stadium_needs_seg_len(self):
        bad = dict(MDM_CIRCLE, descriptor={"kind": "stadium", "radius": 1.0})
        with pytest.raises(IoError, match="seg_len"):
            parse_instance(_bytes(bad))

    def test_polygon_needs_three_vertices(self):
        bad = dict(MDM_CIRCLE, descriptor={"kind": "polygon", "vertices": [[0, 0], [1, 0]]})
        with pytest.raises(IoError, match="descriptor.vertices"):
            parse_instance(_bytes(bad))

    def test_not_json(self):
        with pytest.raises(IoError, match="JSON"):
            parse_instance(b"[not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(IoError, match="object"):
            parse_instance(b"[1, 2]")


class TestInstanceRoundTrip:
    @pytest.mark.parametrize(
        "raw",
        [
            MINIMAL_STEINER,
            MDM_CIRCLE,
            dict(MDM_CIRCLE, descriptor={"kind": "stadium", "radius": 1.5, "seg_len": 2.0}),
            dict(
                MDM_CIRCLE,
                descriptor={"kind": "polygon", "vertices": [[0, 0], [2, 0], [1, 1.7]]},
            ),
            dict(MDM_CIRCLE, descriptor={"kind": "points", "points": [[0.25, -1.5]]}),
            dict(MDM_CIRCLE, descriptor={"kind": "samples", "points": [[0, 0], [1, 1]]}),
        ],
    )
    def test_serialize_parse_serialize_is_identity(self, raw):
        first = serialize_instance(parse_instance(_bytes(raw)))
        second = serialize_instance(parse_instance(first))
        assert first == second

    def test_digest_ignores_formatting_and_key_order(self):
        a = b'{"dim": 2, "problem": "steiner", "terminals": [[0,0],[1,0]]}'
        b = b'{"terminals": [[0.0, 0.0], [1.0, 0.0]],  "problem": "steiner", "dim": 2}'
        da = instance_digest(parse_instance(a))
        db = instance_digest(parse_instance(b))
        assert da == db
        assert da.startswith("sha256:") and len(da) == len("sha256:") + 64

    def test_digest_separates_different_instances(self):
        a = instance_digest(parse_instance(_bytes(MINIMAL_STEINER)))
        b = instance_digest(
            parse_instance(_bytes(dict(MINIMAL_STEINER, terminals=[[0, 0], [2, 0]])))
        )
        assert a != b


class TestResultFiles:
    def _steiner_result(self) -> ResultFile:
        inst = parse_instance(_bytes(MINIMAL_STEINER))
        return ResultFile(
            SCHEMA_VERSION,
            instance_digest(inst),
            "steiner",
            2,
            1.0,
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            [(0, 1)],
            n_terminals=2,
            report={"is_tree": True, "max_degree": 1},
            solver={"name": "exact", "converged": True, "iterations": 0},
        )

    def _mdm_result(self) -> ResultFile:
        inst = parse_instance(_bytes(MDM_CIRCLE))
        return ResultFile(
            SCHEMA_VERSION,
            instance_digest(inst),
            "mdm",
            2,
            11.5,
            np.array([[0.0, 2.0], [1.0, 2.0], [1.0, 3.0]]),
            [(0, 1), (1, 2)],
            r=1.0,
            report={"covered": True, "max_defect": -0.5, "energetic": [[1.0, 2.0]]},
            solver={"name": "numeric", "converged": True, "iterations": 12},
        )

    def test_steiner_round_trip_lossless(self):
        first = serialize_result(self._steiner_result())
        again = serialize_result(parse_result(first))
        assert first == again

    def test_mdm_round_trip_lossless(self):
        first = serialize_result(self._mdm_result())
        again = serialize_result(parse_result(first))
        assert first == again

    def test_parse_recovers_geometry_exactly(self):
        res = self._mdm_result()
        back = parse_result(serialize_result(res))
        assert np.array_equal(back.vertices, res.vertices)
        assert back.edges == res.edges
        assert back.length == res.length and back.r == res.r
        assert back.report["max_defect"] == -0.5

    def test_tree_block_reports_topology_split(self):
        obj = json.loads(serialize_result(self._steiner_result()))
        assert obj["tree"]["topology"]["n_terminals"] == 2
        assert obj["tree"]["topology"]["n_steiner"] == 0
        assert obj["tree"]["topology"]["edges"] == [[0, 1]]

    def test_edge_index_out_of_range_rejected(self):
        obj = json.loads(serialize_result(self._steiner_result()))
        obj["tree"]["edges"] = [[0, 7]]
        with pytest.raises(IoError, match="edges"):
            parse_result(_bytes(obj))

    def test_mdm_result_requires_r(self):
        obj = json.loads(serialize_result(self._mdm_result()))
        del obj["r"]
        with pytest.raises(IoError, match="'r'"):
            parse_result(_bytes(obj))

    def test_result_requires_digest(self):
        obj = json.loads(serialize_result(self._steiner_result()))
        del obj["instance_digest"]
        with pytest.raises(IoError, match="instance_digest"):
            parse_result(_bytes(obj))

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("vertices", 1, 0), True, "field 'network.vertices[1]': expected a list of numbers"),
            (("vertices", 2, 1), "x", "field 'network.vertices[2]': expected a list of numbers"),
            (("vertices", 1), [1.0], "field 'network.vertices[1]': dimension mismatch, expected 2 coordinates, got 1"),
            (("vertices", 0), 5, "field 'network.vertices[0]': expected a list of numbers"),
            (("edges", 1, 1), 3, "field 'network.edges[1]': expected a valid vertex index pair"),
            (("edges", 0, 0), -1, "field 'network.edges[0]': expected a valid vertex index pair"),
            (("edges", 1, 0), 2**70, "field 'network.edges[1]': expected a valid vertex index pair"),
            (("edges", 1, 0), -(2**70), "field 'network.edges[1]': expected a valid vertex index pair"),
            (("edges", 0, 1), True, "field 'network.edges[0]': expected a valid vertex index pair"),
            (("edges", 0, 1), 1.0, "field 'network.edges[0]': expected a valid vertex index pair"),
            (("edges", 1), [0, 1, 2], "field 'network.edges[1]': expected a valid vertex index pair"),
        ],
    )
    def test_bad_row_named_as_by_the_row_loop(self, path, value, message):
        # The array-wide checks hand a failing list to the row loop, which
        # names the first bad row exactly as it always has.
        obj = json.loads(serialize_result(self._mdm_result()))
        target = obj["network"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(IoError) as info:
            parse_result(_bytes(obj))
        assert str(info.value) == message

    def test_huge_integer_coordinate_is_not_finite(self):
        obj = json.loads(serialize_result(self._mdm_result()))
        obj["network"]["vertices"][0][1] = 10**400
        with pytest.raises(IoError, match=r"^field 'network.vertices': coordinates must be finite$"):
            parse_result(_bytes(obj))

    def test_integer_rows_parse_like_floats(self):
        obj = json.loads(serialize_result(self._mdm_result()))
        obj["network"]["vertices"] = [[0, 2], [1, 2.0], [10**30, 3]]
        back = parse_result(_bytes(obj))
        assert back.vertices.tolist() == [[0.0, 2.0], [1.0, 2.0], [1e30, 3.0]]
        assert back.edges == [(0, 1), (1, 2)] and all(type(u) is int for e in back.edges for u in e)
