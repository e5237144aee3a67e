"""JSON scenario documents.

A config file mirrors ScenarioConfig: node capacities, edge list, mode,
horizon, one profile source (``demand`` or ``desired``, which becomes
``ScenarioConfig.profile``), and solver knobs. Parsing is strict: unknown
fields are rejected and every failure names the offending field path. Each
value is checked in one place: ``parse_config`` the document's shape and
the node objects, ``build_topology`` the edges, ``NodeCapacities`` the
bounds together, ``ConvergenceCriteria`` ``eps`` and ``max_iters``, and
``ScenarioConfig`` the run settings, the profile and ``initial_generation``,
so a config built in Python raises the same ConfigError as its file, and a
file that loads can run. Lists are checked whole, by type passes and array
comparisons; only a faulty list is walked, to name its first bad entry.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .consensus import ConvergenceCriteria
from .coordination import NodeCapacities
from .errors import CapacityError, ConfigError, TopologyError
from .graph import build_topology
from .simulation import MODE_WITH, MODE_WITHOUT, SOURCES, ScenarioConfig

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
    if _finite_array([value]) is None:  # json reads Infinity, NaN, 1e999 and 10**400
        raise ConfigError(f"expected a finite number, got {value!r}", field=field)
    return float(value)


def _as_pair(value, field: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"expected a [lo, hi] pair, got {value!r}", field=field)
    return _as_number(value[0], field), _as_number(value[1], field)


def _all_of(values, kind) -> bool:
    """Whether every item of ``values`` is an instance of ``kind`` and none
    is a bool (a bool is no number here): one pass over their types."""
    kinds = set(map(type, values))
    return bool not in kinds and all(issubclass(t, kind) for t in kinds)


def _finite_array(values: list) -> np.ndarray | None:
    """``values`` as a float array if every one is a finite number, else
    None."""
    if not _all_of(values, (int, float)):
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an integer past float range
        return None
    return array if np.isfinite(array).all() else None


def _node_bounds(nodes: list) -> np.ndarray | None:
    """Rows gen_lo, gen_hi, net_lo and net_hi of a (4, n) array, column i
    for node i + 1, when every node is an object holding exactly an id,
    a gen pair and a net pair, the ids are 1..n in some order and every
    bound is a finite number; None otherwise."""
    n = len(nodes)
    if not _all_of(nodes, dict) or set(map(len, nodes)) != {3}:
        return None
    try:
        ids, gens, nets = (list(map(itemgetter(key), nodes)) for key in ("id", "gen", "net"))
    except KeyError:
        return None
    if not _all_of(ids, int):
        return None
    try:
        ids = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id past int64, so outside 1..n
        return None
    if ids.min() < 1 or ids.max() > n or np.bincount(ids).max() > 1:
        return None
    pairs = gens + nets
    if not _all_of(pairs, list) or set(map(len, pairs)) != {2}:
        return None
    values = _finite_array(list(chain.from_iterable(pairs)))
    if values is None:
        return None
    bounds = np.empty((4, n))
    # values runs gen pairs, then net pairs, each in list order
    bounds[:, ids - 1] = values.reshape(2, n, 2).transpose(0, 2, 1).reshape(4, n)
    return bounds


def _raise_node_fault(nodes: list) -> None:
    """Raise ConfigError for the first check, node by node in list order,
    that a node fails."""
    n = len(nodes)
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
        _as_pair(_get(node, "gen"), f"{where}.gen")
        _as_pair(_get(node, "net"), f"{where}.net")


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
    horizon = _get(doc, "horizon")
    # Optional fields are passed as given, and only when present: their
    # defaults and checks live in ScenarioConfig and ConvergenceCriteria.
    options = {key: doc[key] for key in ("seed", "leader", "initial_generation") if key in doc}
    knobs = {key: doc[key] for key in ("eps", "max_iters") if key in doc}

    nodes = _get(doc, "nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("expected a nonempty list of node objects", field="nodes")
    bounds = _node_bounds(nodes)
    if bounds is None:
        _raise_node_fault(nodes)
    gen_lo, gen_hi, net_lo, net_hi = bounds
    try:
        caps = NodeCapacities(gen_lo=gen_lo, gen_hi=gen_hi, net_lo=net_lo, net_hi=net_hi)
    except CapacityError as exc:
        raise ConfigError(str(exc), field="nodes") from exc

    edges = _get(doc, "edges")
    if not isinstance(edges, list):
        raise ConfigError("expected a list of [i, j] pairs", field="edges")
    try:
        topology = build_topology(len(nodes), edges)
    except TopologyError as exc:
        raise ConfigError(str(exc), field="edges") from exc

    source = SOURCES[mode]
    if source not in doc:
        raise ConfigError(f"required by {mode} runs", field=source)
    for unused in SOURCES.values():
        if unused != source and unused in doc:
            raise ConfigError(f"not taken by {mode} runs", field=unused)
    profile = _parse_source(doc[source], source)
    if not isinstance(doc.get("initial_generation", []), list):
        raise ConfigError(f"expected a list of numbers, got {doc['initial_generation']!r}",
                          field="initial_generation")

    # ConvergenceCriteria and ScenarioConfig raise ConfigError naming the
    # field they reject
    return ScenarioConfig(
        mode=mode,
        topology=topology,
        capacities=caps,
        horizon=horizon,
        profile=profile,
        criteria=ConvergenceCriteria(**knobs),
        **options,
    )


def _parse_source(raw, where: str):
    """The explicit values of a source as given, or None for a seeded one;
    ScenarioConfig checks them."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}", field=where)
    _check_unknown(raw, _SPEC_FIELDS, where)
    kind = _get(raw, "kind")
    if kind not in ("seeded", "explicit"):
        raise ConfigError(f"expected 'seeded' or 'explicit', got {kind!r}", field=f"{where}.kind")
    values = raw.get("values")
    if kind == "seeded" and values is not None:
        raise ConfigError("seeded sources take no values", field=f"{where}.values")
    if kind == "explicit" and (not isinstance(values, list) or not values):
        raise ConfigError("explicit sources need a nonempty values list", field=f"{where}.values")
    return values


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical JSON-ready form of a config; inverse of parse_config."""
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
    source = {"kind": "seeded"}
    if config.profile is not None:
        rows = config.mode == MODE_WITHOUT
        source = {"kind": "explicit",
                  "values": [list(v) if rows else v for v in config.profile]}
    doc[SOURCES[config.mode]] = source
    if config.initial_generation is not None:
        doc["initial_generation"] = list(config.initial_generation)
    return doc


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
