"""Radial feeders and long rings: where plain rounds need O(n^2).

A 150-node path needs about 167 000 plain ratio rounds, beyond the
default cap of 100 000. The Chebyshev continuation brings each of these
topologies, up to a 1000-node feeder, well inside the cap; every check
here runs with the default ``ConvergenceCriteria`` and keeps the bounds
the acceptance criteria use. Each topology is checked where it adds
something: both engines on path-150, the longer path-300 on ratio
rounds, the ring on flows (its flows are not subtree sums) and the
1002-node feeder on flows alone, its cheaper engine call. Path-1500
checks that flow control certifies the flows it exports: a run without
coordination passes every audit there. Parsing is checked at the largest
sizes: a 10 000-node mesh and a 2 000-node path. A 2 000-node mesh parses,
runs in both modes and exports without building its tuples of edges.
"""

from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest

from conftest import path_topology as path
from conftest import feeder, fixed_capacities, predicted_rounds, random_capacities
from conftest import reference_topology, symmetrised_spectrum
from gridconsensus import (
    MODE_WITH,
    MODE_WITHOUT,
    ConvergenceCriteria,
    GridState,
    NodeCapacities,
    ScenarioConfig,
    apply_step,
    build_topology,
    compute_delta_bounds,
    coordinate_closed_form,
    degree_weight_matrix,
    export_record,
    flow_accumulate,
    flow_closed_form,
    flow_control,
    generation_closed_form,
    metropolis_weight_matrix,
    parse_config,
    ratio_consensus,
    run,
)
from gridconsensus.graph import _lanczos_interval

CRIT = ConvergenceCriteria()


def ring(n: int):
    return build_topology(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


TOPOLOGIES = {
    "path-150": lambda: path(150),
    "path-300": lambda: path(300),
    "ring-300": lambda: ring(300),
    "feeder-1002": lambda: feeder(334),
}


@pytest.mark.parametrize("name", ["path-150", "path-300"])
def test_ratio_consensus_lands_on_the_sum_ratio(name):
    topo = TOPOLOGIES[name]()
    rng = np.random.default_rng(53)
    x0 = rng.uniform(-5.0, 5.0, topo.n)
    y0 = rng.uniform(0.1, 4.0, topo.n)
    res = ratio_consensus(degree_weight_matrix(topo), x0, y0, CRIT)
    assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps


@pytest.mark.parametrize("name", ["path-150", "ring-300", "feeder-1002"])
def test_flow_control_matches_the_flow_oracle(name):
    # Flow control stops with every node's residual within eps of zero,
    # and its flows are a potential flow, so they differ from the oracle by
    # the electrical flow of that residual: at most half its total absolute
    # value on any edge, n * eps / 2. The bound n * eps leaves room for dust.
    topo = TOPOLOGIES[name]()
    rng = np.random.default_rng(59)
    p_d = rng.uniform(-10.0, 10.0, topo.n)
    noise = rng.uniform(-5.0, 5.0, topo.n)
    state = GridState.initial(p_d + noise - noise.mean()).with_desired(p_d)
    result = flow_control(
        state, topo, metropolis_weight_matrix(topo), fixed_capacities(state), CRIT
    )
    oracle = flow_closed_form(state.p_G - state.p_d, topo)
    assert np.max(np.abs(result.flows - oracle)) <= topo.n * CRIT.eps
    after = apply_step(state, np.zeros(topo.n), result.flows, topo)
    assert np.max(np.abs(after.p_e)) <= 1e-6


@pytest.mark.parametrize("mode", [MODE_WITH, MODE_WITHOUT])
def test_feeder_run_passes_every_audit_and_oracle(mode):
    topo = feeder(50, seed=1)
    assert topo.n == 150
    caps = random_capacities(np.random.default_rng(61), topo.n)
    config = ScenarioConfig(mode=mode, topology=topo, capacities=caps, horizon=2, seed=3)
    record = run(config)
    assert record.all_audits_passed
    # every call stops within twice the rounds the bound predicts on its
    # weights' measured interval (671 for the degree weights, 821 for the
    # Metropolis weights; calls took at most 795 and 1 017); plain rounds
    # took 43 000 to 86 000
    ratio_k = predicted_rounds(degree_weight_matrix(topo).interval, CRIT.eps)
    flow_k = predicted_rounds(metropolis_weight_matrix(topo).interval, CRIT.eps)
    assert np.concatenate((record.coord_iters, record.gen_iters)).max() <= 2 * ratio_k
    assert record.flow_iters.max() <= 2 * flow_k
    p_G = caps.gen_lo
    for k in range(record.horizon):
        p_D = float(record.p_D[k])
        if mode == MODE_WITH:
            oracle = coordinate_closed_form(p_D, caps).desired
            assert np.max(np.abs(record.p_d[k] - oracle) / np.abs(oracle)) <= 1e-8
        else:
            state = GridState.initial(p_G).with_desired(record.p_d[k])
            oracle = generation_closed_form(p_D, state, compute_delta_bounds(state, caps))
            assert np.max(np.abs(record.delta[k] - oracle) / np.maximum(np.abs(oracle), 1.0)) \
                <= 1e-8
        p_G = record.p_G[k]


@pytest.fixture(scope="module")
def path1500():
    # one topology for both checks, so its weights measure their interval once
    return path(1500)


def test_path_1500_run_without_coordination_passes_every_audit(path1500):
    # Capacity ranges as the benchmark draws them. Error annihilation is
    # checked on the net inflow apply_step books, which is the sum flow
    # rounds read their node values from, so the certified spread carries
    # over to the audit at any length. Node values carried apart from the
    # flows drifted from them instead: max |error| 1.1e-8 here, against a
    # budget of ~3.6e-9.
    n = path1500.n
    rng = np.random.default_rng(1)
    gen_lo = rng.uniform(10.0, 40.0, n)
    gen_hi = gen_lo + rng.uniform(10.0, 60.0, n)
    caps = NodeCapacities(gen_lo=gen_lo, gen_hi=gen_hi,
                          net_lo=gen_lo - rng.uniform(0.0, 10.0, n),
                          net_hi=gen_hi + rng.uniform(10.0, 60.0, n))
    record = run(ScenarioConfig(mode=MODE_WITHOUT, topology=path1500, capacities=caps,
                                horizon=1, seed=1))
    assert record.all_audits_passed


def test_path_1500_flows_cancel_the_mismatch_to_eps(path1500):
    # The node values flow rounds certify are the values apply_step
    # produces from their flows, bit for bit: with targets at zero, p_e is
    # those values, so every node ends within eps of zero (8.8e-9 when the
    # rounds carried the node values apart from the flows).
    g0 = np.random.default_rng(67).uniform(-30.0, 30.0, path1500.n)
    g0 -= g0.mean()
    acc = flow_accumulate(path1500, metropolis_weight_matrix(path1500), g0, CRIT)
    state = GridState(p_G=g0, p_d=np.zeros(path1500.n), p_F_net=np.zeros(path1500.n), k=0)
    after = apply_step(state, np.zeros(path1500.n), -acc.h, path1500)
    assert np.max(np.abs(after.p_e)) <= CRIT.eps
    assert np.array_equal(after.p_e, acc.g)


def test_lanczos_steps_stay_bounded_on_the_1002_node_feeder():
    # The measured interval costs one Lanczos run per weight matrix. A step
    # is one round plus O(n) vector work on the three vectors of the
    # recurrence, so steps are what it costs: this feeder takes 570 (degree
    # weights) and 665 (Metropolis) steps, and 700 bounds both. Without a
    # stored basis the Lanczos vectors lose orthogonality, which only repeats
    # eigenvalues that have already converged (Paige, 1976): it may cost
    # steps, and the interval must still bracket the dense spectrum, checked
    # here at a k the small-graph property test never reaches. Memory stays
    # a few vectors of length n, where a stored basis held one per step.
    topo = TOPOLOGIES["feeder-1002"]()
    for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
        tracemalloc.start()
        try:
            (lo, hi), steps = _lanczos_interval(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps <= 700
        assert peak <= 64 * 8 * topo.n
        eig = symmetrised_spectrum(weights)
        assert lo - 1e-9 <= eig[0] and eig[-2] <= hi + 1e-9


def stub_paired_mesh(n: int, mean_degree: int, rng: random.Random) -> list[list[int]]:
    """A random Hamiltonian path plus chords from randomly paired degree
    stubs, as the benchmark's mesh is built, listed in random order and
    orientation."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    stubs = [v for v in range(1, n + 1) for _ in range(mean_degree - 2)]
    rng.shuffle(stubs)
    pairs |= {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
    edges = [[a, b] if rng.random() < 0.5 else [b, a] for a, b in pairs]
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize(("n", "kind"), [(10_000, "mesh"), (2_000, "path")])
def test_large_documents_parse_to_the_reference_topology(n, kind):
    # the array checks at the sizes they were written for: every edge,
    # every degree and every bound as the loops over items give them
    rng = random.Random(f"{kind}/{n}")
    edges = (stub_paired_mesh(n, 6, rng) if kind == "mesh"
             else [[i + 1, i] for i in range(n - 1, 0, -1)])
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    nodes = [{"id": i, "gen": [i % 7, i % 7 + 10.5], "net": [-1, i % 7 + 20]} for i in ids]
    doc = {"mode": "without", "horizon": 1, "nodes": nodes, "edges": edges,
           "desired": {"kind": "seeded"}}
    config = parse_config(json.loads(json.dumps(doc)))
    assert config.topology == reference_topology(n, edges)
    node = np.arange(1, n + 1)
    assert config.capacities.gen_lo.tolist() == (node % 7).astype(float).tolist()
    assert config.capacities.gen_hi.tolist() == (node % 7 + 10.5).tolist()
    assert config.capacities.net_lo.tolist() == [-1.0] * n
    assert config.capacities.net_hi.tolist() == (node % 7 + 20.0).tolist()


@pytest.mark.parametrize("mode", ["with", "without"])
def test_a_mesh_runs_and_exports_without_edge_tuples(mode, tmp_path):
    # parsing, both modes' runs and the export read the edge array only:
    # no topology builds its tuple of edge tuples on the way
    n = 2_000
    edges = stub_paired_mesh(n, 6, random.Random(f"mesh/{n}"))
    nodes = [{"id": i, "gen": [i % 7, i % 7 + 10.5], "net": [-1, i % 7 + 20]}
             for i in range(1, n + 1)]
    source = "demand" if mode == "with" else "desired"
    doc = {"mode": mode, "horizon": 2, "nodes": nodes, "edges": edges,
           source: {"kind": "seeded"}}
    config = parse_config(json.loads(json.dumps(doc)))
    record = run(config)
    export_record(record, tmp_path)
    assert record.all_audits_passed
    assert "edges" not in vars(config.topology)
