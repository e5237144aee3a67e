"""Seeded scenario documents for the benchmark workloads.

Every value is built with ``random.Random(seed)`` and emitted as a plain
Python int or float, so ``json.dumps`` always succeeds. Building edges
with numpy integers instead would hit a program defect:
``build_topology`` keeps ``np.int64`` endpoints as given, and
``config_to_dict`` / ``json.dumps`` then raise ``TypeError``.
"""

from __future__ import annotations

import json
import random

FEEDER_NODES = 120
FEEDER_TRUNK = 40
MESH_NODES = 2000
MESH_MEAN_DEGREE = 6


def _nodes(rng: random.Random, n: int) -> list[dict]:
    # Generation ranges stay <= 100 so that consensus residue (range * eps)
    # stays inside the 1e-8 oracle bound the acceptance tests certify.
    nodes = []
    for i in range(n):
        gen_lo = round(rng.uniform(10.0, 40.0), 3)
        gen_hi = round(gen_lo + rng.uniform(10.0, 60.0), 3)
        net_lo = round(gen_lo - rng.uniform(0.0, 10.0), 3)
        net_hi = round(gen_hi + rng.uniform(10.0, 60.0), 3)
        nodes.append({"id": i + 1, "gen": [gen_lo, gen_hi], "net": [net_lo, net_hi]})
    return nodes


def feeder_edges(rng: random.Random) -> list[list[int]]:
    """Radial feeder: a trunk path 1..FEEDER_TRUNK where every trunk node
    carries two lateral nodes, either as one two-node lateral or as two
    one-node laterals, chosen by the seed.

    Fixing the lateral mass per trunk node keeps the round counts, and so
    the work per step, within a few percent across seeds; free lateral
    placement moved them by about 10 %.
    """
    edges = [[i, i + 1] for i in range(1, FEEDER_TRUNK)]
    nxt = FEEDER_TRUNK + 1
    for t in range(1, FEEDER_TRUNK + 1):
        second = nxt if rng.random() < 0.5 else t
        edges += [[t, nxt], [second, nxt + 1]]
        nxt += 2
    return edges


def mesh_edges(rng: random.Random) -> list[list[int]]:
    """Sparse mesh: a random Hamiltonian path as spanning tree, plus chords
    from randomly paired degree stubs up to a mean degree near
    MESH_MEAN_DEGREE.

    Pairing stubs keeps every degree between 2 and MESH_MEAN_DEGREE, so the
    mesh mixes alike on every seed. Chords between uniform random pairs
    leave some nodes at degree 1 next to hubs, and the rounds then swing by
    about 50 % between seeds.
    """
    order = list(range(1, MESH_NODES + 1))
    rng.shuffle(order)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    stubs = [v for v in range(1, MESH_NODES + 1) for _ in range(MESH_MEAN_DEGREE - 2)]
    rng.shuffle(stubs)
    pairs |= {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
    return [list(p) for p in sorted(pairs)]


def _scenario_doc(mode: str, edges, n: int, horizon: int, rng: random.Random, seed: int):
    doc = {
        "mode": mode,
        "horizon": horizon,
        "seed": seed,
        "nodes": _nodes(rng, n),
        "edges": edges,
    }
    doc["demand" if mode == "with-coordination" else "desired"] = {"kind": "seeded"}
    return doc


def workload_doc(workload: str, seed: int, horizon: int) -> dict:
    """The config document of one workload for one seed."""
    if workload == "feeder-without":
        rng = random.Random(f"feeder-without/{seed}")
        return _scenario_doc("without-coordination", feeder_edges(rng), FEEDER_NODES,
                             horizon, rng, seed)
    # Both mesh workloads share one mesh and one capacity set per seed.
    rng = random.Random(f"mesh/{seed}")
    mode = "with-coordination" if workload == "mesh-with" else "without-coordination"
    return _scenario_doc(mode, mesh_edges(rng), MESH_NODES, horizon, rng, seed)


def workload_text(workload: str, seed: int, horizon: int) -> str:
    return json.dumps(workload_doc(workload, seed, horizon))
