"""JSON scenario documents.

A config file mirrors ScenarioConfig: node capacities, edge list, mode,
horizon, one profile source, and solver knobs. Parsing is strict — unknown
fields are rejected and every failure names the offending field path — so a
file that loads is a file that runs.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .consensus import ConvergenceCriteria
from .coordination import NodeCapacities
from .errors import CapacityError, ConfigError, TopologyError
from .graph import build_topology
from .simulation import (
    MODE_WITH,
    MODE_WITHOUT,
    DemandSpec,
    DesiredSpec,
    ScenarioConfig,
)

_MODE_ALIASES = {
    "with": MODE_WITH,
    "with-coordination": MODE_WITH,
    "without": MODE_WITHOUT,
    "without-coordination": MODE_WITHOUT,
}

_TOP_FIELDS = {
    "mode", "horizon", "seed", "leader", "eps", "max_iters",
    "nodes", "edges", "demand", "desired", "initial_generation",
}
_NODE_FIELDS = {"id", "gen", "net"}
_SPEC_FIELDS = {"kind", "values"}


def _get(doc: dict, key: str):
    if key not in doc:
        raise ConfigError("required field is missing", field=key)
    return doc[key]


def _check_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown field(s) {', '.join(repr(u) for u in unknown)}",
            field=where,
        )


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=field)
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=field)
    return float(value)


def _as_pair(value, field: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"expected a [lo, hi] pair, got {value!r}", field=field)
    return _as_number(value[0], field), _as_number(value[1], field)


def parse_config(doc) -> ScenarioConfig:
    """Turn a decoded JSON document into a validated ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"top level must be an object, got {type(doc).__name__}")
    _check_unknown(doc, _TOP_FIELDS, "top level")

    mode_raw = _get(doc, "mode")
    if not isinstance(mode_raw, str) or mode_raw not in _MODE_ALIASES:
        raise ConfigError(
            f"expected one of {sorted(set(_MODE_ALIASES))}, got {mode_raw!r}",
            field="mode",
        )
    mode = _MODE_ALIASES[mode_raw]
    horizon = _as_int(_get(doc, "horizon"), "horizon")
    # Optional fields are passed only when present, so their defaults live
    # in ScenarioConfig and ConvergenceCriteria alone.
    options = {key: _as_int(doc[key], key) for key in ("seed", "leader") if key in doc}
    knobs = {
        key: parse(doc[key], key)
        for key, parse in (("eps", _as_number), ("max_iters", _as_int))
        if key in doc
    }

    nodes = _get(doc, "nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("expected a nonempty list of node objects", field="nodes")
    n = len(nodes)
    gen_lo = [0.0] * n
    gen_hi = [0.0] * n
    net_lo = [0.0] * n
    net_hi = [0.0] * n
    seen_ids = set()
    for idx, node in enumerate(nodes):
        where = f"nodes[{idx}]"
        if not isinstance(node, dict):
            raise ConfigError(f"expected a node object, got {node!r}", field=where)
        _check_unknown(node, _NODE_FIELDS, where)
        node_id = _as_int(_get(node, "id"), f"{where}.id")
        if not 1 <= node_id <= n:
            raise ConfigError(f"node id {node_id} outside 1..{n}", field=f"{where}.id")
        if node_id in seen_ids:
            raise ConfigError(f"node id {node_id} repeated", field=f"{where}.id")
        seen_ids.add(node_id)
        g = _as_pair(_get(node, "gen"), f"{where}.gen")
        v = _as_pair(_get(node, "net"), f"{where}.net")
        gen_lo[node_id - 1], gen_hi[node_id - 1] = g
        net_lo[node_id - 1], net_hi[node_id - 1] = v
    try:
        caps = NodeCapacities(gen_lo=gen_lo, gen_hi=gen_hi, net_lo=net_lo, net_hi=net_hi)
    except CapacityError as exc:
        raise ConfigError(str(exc), field="nodes") from exc

    edges_raw = _get(doc, "edges")
    if not isinstance(edges_raw, list):
        raise ConfigError("expected a list of [i, j] pairs", field="edges")
    edges = []
    for idx, pair in enumerate(edges_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"expected an [i, j] pair, got {pair!r}", field=f"edges[{idx}]")
        edges.append((
            _as_int(pair[0], f"edges[{idx}]"),
            _as_int(pair[1], f"edges[{idx}]"),
        ))
    try:
        topology = build_topology(n, edges)
    except TopologyError as exc:
        raise ConfigError(str(exc), field="edges") from exc

    demand = None
    if "demand" in doc:
        demand = _parse_source(doc["demand"], "demand", row_values=False)
    desired = None
    if "desired" in doc:
        desired = _parse_source(doc["desired"], "desired", row_values=True)

    initial = None
    if "initial_generation" in doc:
        raw = doc["initial_generation"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError(
                f"expected a list of {n} numbers, got {raw!r}", field="initial_generation"
            )
        initial = tuple(_as_number(v, f"initial_generation[{i}]") for i, v in enumerate(raw))

    try:
        criteria = ConvergenceCriteria(**knobs)
    except ValueError as exc:
        raise ConfigError(str(exc), field="eps/max_iters") from exc
    try:
        return ScenarioConfig(
            mode=mode,
            topology=topology,
            capacities=caps,
            horizon=horizon,
            demand=demand,
            desired=desired,
            criteria=criteria,
            initial_generation=initial,
            **options,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_source(raw, where: str, row_values: bool):
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}", field=where)
    _check_unknown(raw, _SPEC_FIELDS, where)
    kind = _get(raw, "kind")
    if kind not in ("seeded", "explicit"):
        raise ConfigError(f"expected 'seeded' or 'explicit', got {kind!r}", field=f"{where}.kind")
    values = raw.get("values")
    if kind == "seeded":
        if values is not None:
            raise ConfigError("seeded sources take no values", field=f"{where}.values")
        return DesiredSpec(kind="seeded") if row_values else DemandSpec(kind="seeded")
    if not isinstance(values, list) or not values:
        raise ConfigError("explicit sources need a nonempty values list", field=f"{where}.values")
    try:
        if row_values:
            rows = []
            for i, row in enumerate(values):
                if not isinstance(row, list):
                    raise ConfigError(
                        f"expected a per-node list, got {row!r}", field=f"{where}.values[{i}]"
                    )
                rows.append(tuple(
                    _as_number(v, f"{where}.values[{i}][{j}]") for j, v in enumerate(row)
                ))
            return DesiredSpec(kind="explicit", values=tuple(rows))
        flat = tuple(
            _as_number(v, f"{where}.values[{i}]") for i, v in enumerate(values)
        )
        return DemandSpec(kind="explicit", values=flat)
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from exc


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical JSON-ready form of a config; inverse of parse_config.

    Capacity schedules exist only at the library level and cannot be
    written to a file.
    """
    if not isinstance(config.capacities, NodeCapacities):
        raise ConfigError("capacity schedules are not representable in config files")
    caps = config.capacities
    doc = {
        "mode": config.mode,
        "horizon": config.horizon,
        "seed": config.seed,
        "leader": config.leader,
        "eps": config.criteria.eps,
        "max_iters": config.criteria.max_iters,
        "nodes": [
            {
                "id": i + 1,
                "gen": [caps.gen_lo[i], caps.gen_hi[i]],
                "net": [caps.net_lo[i], caps.net_hi[i]],
            }
            for i in range(caps.n)
        ],
        "edges": [[i, j] for i, j in config.topology.edges],
    }
    if config.demand is not None:
        doc["demand"] = _source_to_dict(config.demand)
    if config.desired is not None:
        doc["desired"] = _source_to_dict(config.desired)
    if config.initial_generation is not None:
        doc["initial_generation"] = list(config.initial_generation)
    return doc


def _source_to_dict(spec) -> dict:
    if spec.kind == "seeded":
        return {"kind": "seeded"}
    if isinstance(spec, DesiredSpec):
        return {"kind": "explicit", "values": [list(row) for row in spec.values]}
    return {"kind": "explicit", "values": list(spec.values)}


def load_config(path) -> ScenarioConfig:
    """Read and validate a config file.

    JSON syntax errors and I/O failures propagate as-is (callers map them
    to the parse-failure exit code); semantic problems raise ConfigError.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config(doc)


def dump_config(config: ScenarioConfig, path) -> None:
    """Write the canonical JSON form, stable across repeated dumps."""
    doc = config_to_dict(config)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def default_config_path(mode: str) -> Path:
    """Path of a shipped ready-to-run scenario ('with' or 'without')."""
    if mode not in _MODE_ALIASES:
        raise ValueError(f"mode must be one of {sorted(set(_MODE_ALIASES))}")
    name = (
        "with_coordination.json"
        if _MODE_ALIASES[mode] == MODE_WITH
        else "without_coordination.json"
    )
    return Path(str(resources.files("gridconsensus").joinpath("data", name)))
