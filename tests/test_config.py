"""Config file round trips and strict parse failures."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridconsensus import (
    CapacityError,
    ConfigError,
    MODE_WITH,
    MODE_WITHOUT,
    NodeCapacities,
    ScenarioConfig,
    TopologyError,
    build_topology,
    config_to_dict,
    default_config_path,
    dump_config,
    load_config,
    parse_config,
)
from conftest import DESIRED_AT_150, RING_CHORD_EDGES, make_reference_caps, random_capacities
from conftest import random_connected_topology


def good_doc():
    return {
        "mode": "without",
        "horizon": 3,
        "seed": 4,
        "nodes": [
            {"id": 1, "gen": [0, 10], "net": [-5, 15]},
            {"id": 2, "gen": [5, 25], "net": [0, 30]},
        ],
        "edges": [[1, 2]],
        "desired": {"kind": "seeded"},
    }


class TestParse:
    def test_minimal_document(self):
        config = parse_config(good_doc())
        assert config.mode == MODE_WITHOUT
        assert config.horizon == 3
        assert config.seed == 4
        assert config.leader == 1
        assert config.criteria.eps == 1e-10
        assert config.topology.n == 2
        assert config.capacities.gen_hi[1] == 25.0

    def test_mode_aliases(self):
        doc = good_doc()
        doc["mode"] = "without-coordination"
        assert parse_config(doc).mode == MODE_WITHOUT
        doc["mode"] = "with"
        doc.pop("desired")
        doc["demand"] = {"kind": "seeded"}
        assert parse_config(doc).mode == MODE_WITH

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config([1, 2, 3])

    def test_unknown_top_level_field(self):
        doc = good_doc()
        doc["horizons"] = 3
        with pytest.raises(ConfigError, match="'horizons'"):
            parse_config(doc)

    def test_missing_required_field(self):
        doc = good_doc()
        del doc["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(doc)

    def test_bool_is_not_an_int(self):
        doc = good_doc()
        doc["horizon"] = True
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(doc)

    def test_unknown_mode(self):
        doc = good_doc()
        doc["mode"] = "sometimes"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(doc)

    def test_unknown_node_field(self):
        doc = good_doc()
        doc["nodes"][0]["generation"] = [0, 10]
        with pytest.raises(ConfigError, match=r"nodes\[0\]"):
            parse_config(doc)

    def test_node_id_out_of_range(self):
        doc = good_doc()
        doc["nodes"][1]["id"] = 3
        with pytest.raises(ConfigError, match="outside 1..2"):
            parse_config(doc)

    def test_node_id_repeated(self):
        doc = good_doc()
        doc["nodes"][1]["id"] = 1
        with pytest.raises(ConfigError, match="repeated"):
            parse_config(doc)

    def test_gen_pair_shape(self):
        doc = good_doc()
        doc["nodes"][0]["gen"] = [0, 10, 20]
        with pytest.raises(ConfigError, match=r"nodes\[0\].gen"):
            parse_config(doc)

    def test_inverted_bounds_blame_nodes(self):
        doc = good_doc()
        doc["nodes"][0]["gen"] = [10, 0]
        with pytest.raises(ConfigError, match="nodes"):
            parse_config(doc)

    def test_two_bad_nodes_blame_the_lower_numbered(self):
        # listed out of order: node 2's net bounds are inverted, node 1's
        # generation range leaves its net range; node 1 is reported
        doc = good_doc()
        doc["nodes"] = [
            {"id": 2, "gen": [5, 25], "net": [30, 0]},
            {"id": 1, "gen": [0, 10], "net": [1, 15]},
        ]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == ("nodes: node 1: generation interval [0.0, 10.0] not "
                                   "contained in net-power interval [1.0, 15.0]")

    def test_bad_edges_blame_edges(self):
        doc = good_doc()
        doc["edges"] = [[1, 1]]
        with pytest.raises(ConfigError, match="edges"):
            parse_config(doc)
        doc["edges"] = []
        with pytest.raises(ConfigError, match="edges"):
            parse_config(doc)

    def test_edge_errors_are_build_topologys_own(self):
        # parse_config checks only that edges is a list: every other edge
        # message comes from build_topology, behind the field name
        for edges in ([[1, 1.5]], [[1, "1"]], [[True, 2]], [[1, 3]], [[1, 1]],
                      [[1, 2], [2, 1]], [[1, 2, 3]], [7], [None], [], [[1, 2], "12"]):
            doc = good_doc()
            doc["edges"] = edges
            with pytest.raises(TopologyError) as expected:
                build_topology(2, edges)
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            assert str(info.value) == "edges: " + str(expected.value)
            assert type(info.value.__cause__) is type(expected.value)

    def test_seeded_source_with_values(self):
        doc = good_doc()
        doc["desired"] = {"kind": "seeded", "values": [[1.0, 2.0]]}
        with pytest.raises(ConfigError, match="desired.values"):
            parse_config(doc)

    def test_explicit_demand_values(self):
        doc = good_doc()
        doc["mode"] = "with"
        del doc["desired"]
        doc["demand"] = {"kind": "explicit", "values": [10.0, 20.0, 30.0]}
        config = parse_config(doc)
        assert config.profile == (10.0, 20.0, 30.0)

    def test_explicit_desired_rows(self):
        doc = good_doc()
        doc["horizon"] = 1
        doc["desired"] = {"kind": "explicit", "values": [[5.0, 10.0]]}
        config = parse_config(doc)
        assert config.profile == ((5.0, 10.0),)

    def test_desired_rows_must_be_lists(self):
        doc = good_doc()
        doc["desired"] = {"kind": "explicit", "values": [5.0]}
        with pytest.raises(ConfigError, match=r"desired.values\[0\]"):
            parse_config(doc)

    def test_source_mode_mismatch_caught(self):
        doc = good_doc()
        doc["demand"] = {"kind": "seeded"}  # both sources present
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_eps(self):
        doc = good_doc()
        doc["eps"] = 0.0
        with pytest.raises(ConfigError, match="eps"):
            parse_config(doc)

    @pytest.mark.parametrize(("key", "value", "expected"), [
        ("eps", float("inf"), "eps: must be a positive finite number, got inf"),
        ("net", [10, float("inf")], "nodes: node 1: net_hi inf is not a finite number"),
        ("gen", [float("nan"), 50], "nodes: node 1: gen_lo nan is not a finite number"),
    ], ids=["eps-infinity", "net-infinity", "gen-nan"])
    def test_non_finite_numbers_name_their_field(self, key, value, expected):
        # json writes and reads these as Infinity and NaN; ConvergenceCriteria
        # alone checks eps, and NodeCapacities the bounds
        doc = good_doc()
        (doc if key == "eps" else doc["nodes"][0])[key] = value
        text = json.dumps(doc)
        assert "Infinity" in text or "NaN" in text
        with pytest.raises(ConfigError, match=rf"^{expected}"):
            parse_config(json.loads(text))

    @pytest.mark.parametrize("bad", ["10", True, None, float("inf"), float("nan"), 10**400],
                             ids=["string", "bool", "null", "infinity", "nan", "past-float"])
    def test_bad_bounds_raise_the_capacity_error_of_python(self, tmp_path, bad):
        # parse_config checks the node objects and NodeCapacities their
        # bounds: a file raises the CapacityError of the same capacities
        # built in Python, under field nodes; node 2 is listed first
        doc = good_doc()
        doc["nodes"].reverse()
        doc["nodes"][0]["net"][0] = bad
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CapacityError) as expected:
            NodeCapacities(gen_lo=[0, 5], gen_hi=[10, 25], net_lo=[-5, bad], net_hi=[15, 30])
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "nodes: " + str(expected.value)
        assert info.value.field == "nodes"
        assert type(info.value.__cause__) is CapacityError
        assert str(info.value.__cause__) == str(expected.value)

    def test_numpy_bounds_in_a_document_are_numbers(self):
        # a document built in Python may hold numpy numbers, as
        # NodeCapacities built directly may
        doc = good_doc()
        doc["nodes"][0]["gen"] = [np.int64(0), np.float32(10)]
        caps = parse_config(doc).capacities
        assert caps.gen_lo.tolist() == [0.0, 5.0] and caps.gen_hi.tolist() == [10.0, 25.0]

    def test_initial_generation_parsed_and_checked(self):
        doc = good_doc()
        doc["initial_generation"] = [5.0, 10.0]
        assert parse_config(doc).initial_generation == (5.0, 10.0)
        doc["initial_generation"] = [5.0]
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["initial_generation"] = [5.0, "ten"]
        with pytest.raises(ConfigError, match=r"initial_generation\[1\]"):
            parse_config(doc)


    @pytest.mark.parametrize(("key", "value", "field", "message"), [
        ("horizon", "3", "horizon", "must be an integer, got '3'"),
        ("horizon", 0, "horizon", "must be >= 1, got 0"),
        ("seed", 1.5, "seed", "must be an integer, got 1.5"),
        ("seed", -1, "seed", "must be a non-negative integer, got -1"),
        ("leader", True, "leader", "must be an integer, got True"),
        ("leader", 3, "leader", "3 outside 1..2"),
        ("initial_generation", [5.0], "initial_generation", "1 entries for 2 nodes"),
        ("initial_generation", [5.0, 30.0], "initial_generation",
         "node 2 outside its generation bounds"),
        ("demand", {"kind": "seeded"}, "demand", "not taken by without-coordination runs"),
        ("desired", None, "desired", "required by without-coordination runs"),
        ("eps", 0, "eps", "must be a positive finite number, got 0"),
        ("eps", -1e-9, "eps", "must be a positive finite number, got -1e-09"),
        ("max_iters", 0, "max_iters", "must be an integer >= 1, got 0"),
        ("max_iters", 2.5, "max_iters", "must be an integer >= 1, got 2.5"),
        ("max_iters", True, "max_iters", "must be an integer >= 1, got True"),
    ])
    def test_scenario_config_errors_name_their_field(self, key, value, field, message):
        # ScenarioConfig or ConvergenceCriteria alone checks these, and
        # parse_config alone which source the mode takes; their errors
        # reach the caller with the field set and named once
        doc = good_doc()
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.field == field
        assert str(info.value) == f"{field}: {message}"

    def test_with_coordination_blames_the_wrong_source(self):
        doc = good_doc()
        doc["mode"] = "with"
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert (info.value.field, str(info.value)) == (
            "demand", "demand: required by with-coordination runs")
        doc["demand"] = {"kind": "seeded"}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert (info.value.field, str(info.value)) == (
            "desired", "desired: not taken by with-coordination runs")

    @pytest.mark.parametrize(("source", "values", "expected"), [
        ("demand", [], "demand.values: explicit sources need a nonempty values list"),
        ("demand", [10, 20], "demand.values: 2 entries for horizon 3"),
        ("demand", [10, 36, 40], "demand.values[1]: step 2: demand 36.0 outside [5.0, 35.0]"),
        ("desired", [[5, 10], [5, 10]], "desired.values: 2 entries for horizon 3"),
        ("desired", [[5, 10], [5, 10, 1], [5, 10]],
         "desired.values[1]: step 2: desired row has 3 values for 2 nodes"),
        ("desired", [[5, 10], [5, 10], [5, 31]], "desired.values[2][1]: step 3, node 2: "
         "desired net power 31.0 outside net-power bounds [0.0, 30.0]"),
        ("desired", [[5, 10], [15, 25], [5, 10]],
         "desired.values[1]: step 2: desired profile sums to 40.0, outside [5.0, 35.0]"),
    ], ids=["demand-empty", "demand-length", "demand-unrealizable", "desired-length",
            "desired-width", "desired-net-bound", "desired-unrealizable"])
    @pytest.mark.parametrize("route", ["file", "python"])
    def test_explicit_profile_faults_name_their_entry(self, tmp_path, source, values,
                                                      expected, route):
        # the file loads only if the profile fits the horizon and capacities,
        # and a config built in Python from the same values raises the same
        # error; an empty list is a fault of the document's shape, which
        # parse_config alone checks, and built in Python it is a count
        doc = good_doc()
        del doc["desired"]
        doc["mode"] = "with" if source == "demand" else "without"
        doc[source] = {"kind": "explicit", "values": values}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if route == "python" and not values:
            expected = f"{source}.values: 0 entries for horizon 3"
        with pytest.raises(ConfigError) as info:
            load_config(path) if route == "file" else build_in_python(doc)
        assert str(info.value) == expected
        assert info.value.field == expected.split(":")[0]

    @pytest.mark.parametrize(("path", "value", "expected"), [
        (("nodes", 1, "id"), 2**63,
         "nodes[1].id: node id 9223372036854775808 outside 1..2"),
        (("edges", 0, 1), 2**63,
         "edges: edge [1, 9223372036854775808]: endpoint 9223372036854775808 outside 1..2"),
        (("nodes", 0, "gen", 1), 10**400,
         f"nodes: node 1: gen_hi {10**400} is not a finite number"),
        (("initial_generation", 1), -(10**400),
         f"initial_generation[1]: expected a finite number, got {-(10**400)}"),
    ], ids=["id", "endpoint", "gen", "initial_generation"])
    def test_integers_past_the_array_types_are_worded_by_the_loop(self, path, value, expected):
        # int64 and float64 cannot hold these, so the array checks refuse
        # them and the loop words the error as for any other bad value
        doc = good_doc()
        doc["initial_generation"] = [5.0, 10.0]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == expected

    @pytest.mark.parametrize("where", ["initial_generation", "demand", "desired"])
    @pytest.mark.parametrize(("value", "problem"), [
        (True, "a number"), ("5", "a number"), (None, "a number"),
        (float("inf"), "a finite number"), (float("nan"), "a finite number"),
    ])
    @pytest.mark.parametrize("route", ["file", "python"])
    def test_number_lists_name_the_first_bad_entry(self, where, value, problem, route):
        doc = good_doc()
        values = [5.0, 10.0, value, "later"]
        if where == "initial_generation":
            doc[where], path = values, "initial_generation[2]"
        elif where == "demand":
            doc["mode"] = "with"
            del doc["desired"]
            doc[where] = {"kind": "explicit", "values": values}
            path = "demand.values[2]"
        else:
            doc[where] = {"kind": "explicit", "values": [[1.0, 2.0], values]}
            path = "desired.values[1][2]"
        with pytest.raises(ConfigError) as info:
            parse_config(doc) if route == "file" else build_in_python(doc)
        assert str(info.value) == f"{path}: expected {problem}, got {value!r}"
        assert info.value.field == path


def build_in_python(doc):
    """``doc`` as a ScenarioConfig built in Python: the document is parsed
    with a seeded source and no initial generation, and ``replace`` puts
    its explicit values back, as given."""
    source = "demand" if "demand" in doc else "desired"
    base = {**doc, source: {"kind": "seeded"}}
    base.pop("initial_generation", None)
    return replace(parse_config(base), profile=doc[source].get("values"),
                   initial_generation=doc.get("initial_generation"))


class TestBuiltInPython:
    """Values a config file cannot hold, given to ScenarioConfig directly,
    raise ConfigError as loading does."""

    @pytest.fixture
    def explicit_with_config(self):
        return replace(load_config(default_config_path("with")), horizon=2,
                       profile=(150.0, 160.0))

    @pytest.mark.parametrize("profile", [("150", "160"), ("abc", 160), (None, 160)])
    def test_profile_entries_must_be_numbers(self, explicit_with_config, profile):
        with pytest.raises(ConfigError) as info:
            replace(explicit_with_config, profile=profile)
        assert str(info.value) == f"demand.values[0]: expected a number, got {profile[0]!r}"
        assert info.value.field == "demand.values[0]"

    def test_desired_rows_must_be_lists(self, explicit_with_config):
        with pytest.raises(ConfigError) as info:
            replace(explicit_with_config, mode=MODE_WITHOUT)
        assert str(info.value) == "desired.values[0]: expected a per-node list, got 150.0"
        assert info.value.field == "desired.values[0]"

    @pytest.mark.parametrize("mode, field, what", [
        (MODE_WITH, "demand.values", "numbers"),
        (MODE_WITHOUT, "desired.values", "per-node lists"),
    ])
    def test_profile_must_be_a_list(self, explicit_with_config, mode, field, what):
        # a bare number is no profile: ConfigError, not a TypeError from iterating it
        for bad in (150, np.float64(150.0)):
            with pytest.raises(ConfigError) as info:
                replace(explicit_with_config, mode=mode, profile=bad)
            assert str(info.value) == f"{field}: expected a list of {what}, got {bad!r}"
            assert info.value.field == field

    def test_initial_generation_must_be_a_list(self, explicit_with_config):
        for bad in (10, np.float64(10.0)):
            with pytest.raises(ConfigError) as info:
                replace(explicit_with_config, initial_generation=bad)
            assert str(info.value) == f"initial_generation: expected a list of numbers, got {bad!r}"
            assert info.value.field == "initial_generation"

    @pytest.mark.parametrize(("name", "bad", "message"), [
        ("topology", "x", "must be one GridTopology, got str"),
        ("capacities", None, "must be one NodeCapacities, got NoneType"),
        ("criteria", "x", "must be one ConvergenceCriteria, got str"),
        ("fail_fast", "no", "must be a bool, got 'no'"),
        ("fail_fast", 1, "must be a bool, got 1"),
    ], ids=["topology", "capacities", "criteria", "fail_fast-str", "fail_fast-int"])
    def test_run_objects_must_have_their_types(self, explicit_with_config, name, bad, message):
        # refused when the config is built, not with a bare AttributeError
        # or, for criteria, inside run() with no step and no phase
        with pytest.raises(ConfigError) as info:
            replace(explicit_with_config, **{name: bad})
        assert str(info.value) == f"{name}: {message}"
        assert info.value.field == name

    def test_numpy_values_are_numbers(self, explicit_with_config):
        # numpy numbers and 1-D arrays pass, as Python floats
        config = replace(explicit_with_config, profile=np.array([150, 160]),
                         initial_generation=explicit_with_config.capacities.gen_lo)
        assert config.profile == (150.0, 160.0)
        assert all(type(v) is float for v in config.profile + config.initial_generation)
        rows = np.tile(config.capacities.gen_lo, (2, 1))
        config = replace(config, mode=MODE_WITHOUT, profile=[rows[0], tuple(rows[1])])
        assert config.profile == (tuple(rows[0].tolist()),) * 2


def reference_node_bounds(nodes):
    """The node list checked one node at a time, as ``parse_config`` did
    before its checks ran on whole lists: [gen_lo, gen_hi, net_lo, net_hi]
    per node id, as given, or the ConfigError message of the first fault.
    The bound values are not checked here: NodeCapacities checks them."""
    n = len(nodes)
    bounds = [[0.0] * n for _ in range(4)]
    seen = set()

    try:
        for idx, node in enumerate(nodes):
            where = f"nodes[{idx}]"
            if not isinstance(node, dict):
                raise ConfigError(f"expected a node object, got {node!r}", field=where)
            unknown = sorted(set(node) - {"id", "gen", "net"})
            if unknown:
                raise ConfigError(f"unknown field(s) {', '.join(repr(u) for u in unknown)}",
                                  field=where)
            for key in ("id", "gen", "net"):
                if key not in node:
                    raise ConfigError("required field is missing", field=key)
                if key == "id":
                    node_id = node["id"]
                    if isinstance(node_id, bool) or not isinstance(node_id, int):
                        raise ConfigError(f"expected an integer, got {node_id!r}",
                                          field=f"{where}.id")
                    if not 1 <= node_id <= n:
                        raise ConfigError(f"node id {node_id} outside 1..{n}",
                                          field=f"{where}.id")
                    if node_id in seen:
                        raise ConfigError(f"node id {node_id} repeated", field=f"{where}.id")
                    seen.add(node_id)
                    continue
                pair = node[key]
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"expected a [lo, hi] pair, got {pair!r}",
                                      field=f"{where}.{key}")
                row = 0 if key == "gen" else 2
                for side in (0, 1):
                    bounds[row + side][node_id - 1] = pair[side]
    except ConfigError as exc:
        return str(exc)
    return bounds


BAD_NUMBERS = (True, False, "7", None, [1.0], float("inf"), float("-inf"), float("nan"),
               10**400, -(10**400))
BAD_IDS = (True, "1", None, 2.0, 2**63, -(2**63) - 1, -1, 0, np.int64(1))
BAD_PAIRS = ([1.0], [1.0, 2.0, 3.0], [], (1.0, 2.0), {}, "12", None, 3)


NODE_FAULTS = (None, "id", "number", "pair", "past-n", "repeat", "node", "missing", "extra")


@st.composite
def node_lists(draw, fault):
    """A valid node list in shuffled id order, carrying the named fault
    (None for none): a replaced id, bound or pair, an id past n or
    repeated, a node that is no object, or a field missing or added."""
    n = draw(st.integers(1, 6))
    numbers = st.integers(-50, 50) | st.floats(-50, 50)
    nodes = []
    for node_id in draw(st.permutations(range(1, n + 1))):
        net_lo, gen_lo, gen_hi, net_hi = sorted(draw(st.lists(numbers, min_size=4, max_size=4)))
        nodes.append({"id": node_id, "gen": [gen_lo, gen_hi], "net": [net_lo, net_hi]})
    node = draw(st.sampled_from(nodes))
    key = draw(st.sampled_from(("gen", "net")))
    if fault == "id":
        node["id"] = draw(st.sampled_from(BAD_IDS))
    elif fault == "number":
        node[key][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault == "pair":
        node[key] = draw(st.sampled_from(BAD_PAIRS))
    elif fault == "past-n":
        node["id"] = n + 1
    elif fault == "repeat":
        node["id"] = draw(st.integers(1, n))
    elif fault == "node":
        nodes[nodes.index(node)] = draw(st.sampled_from(([], 3, None, "node")))
    elif fault == "missing":
        del node[draw(st.sampled_from(("id", "gen", "net")))]
    elif fault == "extra":
        node["bus"] = 1
    return nodes


@pytest.mark.parametrize("fault", NODE_FAULTS, ids=str)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_node_checks_match_the_reference_loop(fault, data):
    # the array checks give the reference's capacities, or the message of
    # the first fault it finds, node by node in list order; a list whose
    # nodes are well formed raises what NodeCapacities raises for its bounds
    nodes = data.draw(node_lists(fault))
    doc = good_doc()
    doc["nodes"] = nodes
    doc["edges"] = [[i, i + 1] for i in range(1, len(nodes))]
    expected = reference_node_bounds(nodes)
    try:
        caps = parse_config(doc).capacities
    except ConfigError as exc:
        if isinstance(expected, str):
            assert str(exc) == expected
        else:
            with pytest.raises(CapacityError) as info:
                NodeCapacities(*expected)
            assert str(exc) == f"nodes: {info.value}"
            assert exc.field == "nodes" and isinstance(exc.__cause__, CapacityError)
        return
    assert [a.tolist() for a in (caps.gen_lo, caps.gen_hi, caps.net_lo, caps.net_hi)] == expected


REF_CAPS = make_reference_caps()
REF_TOPOLOGY = build_topology(6, RING_CHORD_EDGES)


def reference_profile_fault(mode, profile, caps, horizon):
    """The explicit profile checked one step at a time, as
    ``generate_demand_profile`` and ``generate_desired_profile`` did before
    ``ScenarioConfig`` checked it whole: the ``field: message`` of the first
    fault, or None. A value that is not finite fails first, in document
    order, before the count, as loading checks each entry before the rest."""
    lower, upper = caps.total_gen_lo, caps.total_gen_hi
    where = "demand.values" if mode == MODE_WITH else "desired.values"
    for k, entry in enumerate(profile):
        for i, value in enumerate((entry,) if mode == MODE_WITH else entry):
            if not math.isfinite(value):
                field = f"{where}[{k}]" if mode == MODE_WITH else f"{where}[{k}][{i}]"
                return f"{field}: expected a finite number, got {value!r}"
    if len(profile) != horizon:
        return f"{where}: {len(profile)} entries for horizon {horizon}"
    for k, entry in enumerate(profile):
        if mode == MODE_WITH:
            if not lower <= entry <= upper:
                return f"{where}[{k}]: step {k + 1}: demand {entry} outside [{lower}, {upper}]"
            continue
        if len(entry) != caps.n:
            return (f"{where}[{k}]: step {k + 1}: desired row has {len(entry)} values "
                    f"for {caps.n} nodes")
        for i, value in enumerate(entry):
            if not caps.net_lo[i] <= value <= caps.net_hi[i]:
                return (f"{where}[{k}][{i}]: step {k + 1}, node {i + 1}: desired net power "
                        f"{value} outside net-power bounds [{caps.net_lo[i]}, {caps.net_hi[i]}]")
        total = float(np.sum(entry))
        if not lower <= total <= upper:
            return (f"{where}[{k}]: step {k + 1}: desired profile sums to {total}, "
                    f"outside [{lower}, {upper}]")
    return None


def near(*ends):
    """Each end, the floats either side of it, and NaN."""
    return st.sampled_from([x for end in map(float, ends)
                            for x in (end, math.nextafter(end, -math.inf),
                                      math.nextafter(end, math.inf))] + [math.nan])


@st.composite
def explicit_profiles(draw, mode):
    """A horizon and a profile for the reference system, mostly of the
    horizon's length and with rows n wide. Entries lie on, just inside or
    just outside each bound, or are NaN: totals against the realizable
    interval, per-node values against the net and generation bounds (a row
    of generation bounds sums to an end of the realizable interval). Some
    rows draw every value from the net box, so their sums fall on both
    sides of the realizable interval."""
    caps, n = REF_CAPS, REF_CAPS.n
    horizon = draw(st.integers(1, 3))
    length = draw(st.sampled_from((horizon,) * 6 + (horizon - 1, horizon + 1)))
    if mode == MODE_WITH:
        lower, upper = caps.total_gen_lo, caps.total_gen_hi
        total = st.floats(lower, upper) | near(lower, upper) | st.floats(lower - 10, upper + 10)
        return horizon, tuple(draw(total) for _ in range(length))
    inside = [st.floats(caps.net_lo[i], caps.net_hi[i]) for i in range(n)]
    at_gen = [near(caps.gen_lo[i], caps.gen_hi[i]) for i in range(n)]
    anywhere = [inside[i] | near(caps.net_lo[i], caps.net_hi[i]) | at_gen[i] for i in range(n)]
    rows = []
    for _ in range(length):
        width = draw(st.sampled_from((n,) * 6 + (n - 1, n + 1)))
        values = draw(st.sampled_from((inside, at_gen, anywhere)))
        rows.append(tuple(draw(values[i % n]) for i in range(width)))
    return horizon, tuple(rows)


@pytest.mark.parametrize("mode", [MODE_WITH, MODE_WITHOUT])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_explicit_profiles_match_the_reference_loop(mode, data, tmp_path_factory):
    # ScenarioConfig accepts exactly the profiles the step-by-step loop
    # accepts, and names the same first fault; an accepted profile comes
    # back equal through a config file
    horizon, profile = data.draw(explicit_profiles(mode))
    expected = reference_profile_fault(mode, profile, REF_CAPS, horizon)
    try:
        config = ScenarioConfig(mode=mode, topology=REF_TOPOLOGY, capacities=REF_CAPS,
                                horizon=horizon, profile=profile)
    except ConfigError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert config.profile == profile
    path = tmp_path_factory.getbasetemp() / "profile.json"
    dump_config(config, path)
    assert load_config(path).profile == config.profile


class TestRoundTrip:
    def test_doc_round_trip(self):
        doc = good_doc()
        doc["mode"] = "without-coordination"  # aliases parse but dump canonically
        doc["leader"] = 2
        doc["eps"] = 1e-9
        doc["max_iters"] = 5000
        doc["initial_generation"] = [5.0, 10.0]
        assert config_to_dict(parse_config(doc)) == doc

    def test_shipped_configs_round_trip(self):
        for mode in ("with", "without"):
            path = default_config_path(mode)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            assert config_to_dict(parse_config(doc)) == doc

    def test_dump_load_round_trip(self, tmp_path):
        config = parse_config(good_doc())
        out = tmp_path / "scenario.json"
        dump_config(config, out)
        again = load_config(out)
        assert config_to_dict(again) == config_to_dict(config)
        # dumping twice produces identical bytes
        out2 = tmp_path / "scenario2.json"
        dump_config(again, out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_random_topology_dump_load_round_trip(self, tmp_path):
        # generated graphs carry numpy-integer endpoints into build_topology
        rng = np.random.default_rng(8)
        topology = random_connected_topology(8, rng)
        config = ScenarioConfig(
            mode=MODE_WITHOUT, topology=topology, capacities=random_capacities(rng, 8),
            horizon=2,
        )
        out = tmp_path / "scenario.json"
        dump_config(config, out)
        again = load_config(out)
        assert again.topology == topology
        assert config_to_dict(again) == config_to_dict(config)

    @pytest.mark.parametrize("mode", [MODE_WITH, MODE_WITHOUT])
    def test_explicit_sources_dump_load_round_trip(self, tmp_path, ref_caps, ring_chord,
                                                   mode):
        if mode == MODE_WITH:
            profile = (100.0, 150.25)
        else:
            profile = ((20.0, 40.5, 25.0, 15.0, 30.0, 19.5), tuple(DESIRED_AT_150))
        config = ScenarioConfig(mode=mode, topology=ring_chord, capacities=ref_caps,
                                horizon=2, profile=profile)
        out = tmp_path / "scenario.json"
        dump_config(config, out)
        again = load_config(out)
        assert again.profile == config.profile
        assert config_to_dict(again) == config_to_dict(config)


class TestFiles:
    def test_load_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_load_junk_is_json_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_config(bad)

    def test_shipped_configs_parse_and_differ(self):
        with_cfg = load_config(default_config_path("with"))
        without_cfg = load_config(default_config_path("without"))
        assert with_cfg.mode == MODE_WITH
        assert without_cfg.mode == MODE_WITHOUT
        assert with_cfg.topology.edges == without_cfg.topology.edges
        assert with_cfg.horizon == without_cfg.horizon == 50

    def test_default_path_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            default_config_path("sideways")


def test_parse_does_not_mutate_input():
    doc = good_doc()
    snapshot = copy.deepcopy(doc)
    parse_config(doc)
    assert doc == snapshot


def rich_doc():
    """A valid document that sets every field, so that each one can be
    replaced."""
    return {
        "mode": "without",
        "horizon": 2,
        "seed": 4,
        "leader": 2,
        "eps": 1e-9,
        "max_iters": 5000,
        "nodes": [
            {"id": 1, "gen": [0, 10], "net": [-5, 15]},
            {"id": 2, "gen": [5, 25], "net": [0, 30]},
            {"id": 3, "gen": [0, 5], "net": [-5, 5]},
        ],
        "edges": [[1, 2], [3, 2]],
        "desired": {"kind": "explicit", "values": [[5.0, 10.0, 1.0], [6.0, 11.0, 2.0]]},
        "initial_generation": [5.0, 10.0, 1.0],
    }


def field_paths(value, path=()):
    """The path of every value inside ``value``, at every depth."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("path", list(field_paths(rich_doc())),
                         ids=lambda path: ".".join(map(str, path)))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(value=JSON_VALUES)
def test_any_one_bad_field_raises_config_error(path, value):
    # top level, a node and its fields, an edge, an endpoint, a source,
    # initial_generation: whatever JSON replaces it, the checks that moved
    # out of parse_config still answer with a ConfigError and nothing else
    doc = rich_doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)
