"""Topology validation and the two weight-matrix constructions.

Covers: edge-list validation (range, loops, duplicates, connectivity),
the array checks against the edge-by-edge reference, the random graph
generator against its scalar reference, canonical edge ordering, exact
weight values on small graphs, stochasticity/symmetry properties over
random connected graphs, the compressed-row weights against dense
loop-built references, the slot-major product against sequential per-row
sums, bit for bit, their memory on a large ring, and the measured
spectral interval and its widened fallback.
"""

from __future__ import annotations

import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridconsensus.graph as graph_mod
from gridconsensus import (
    ConvergenceCriteria,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    GridTopology,
    SelfLoopError,
    SparseWeights,
    TopologyError,
    build_topology,
    degree_weight_matrix,
    flow_accumulate,
    flow_closed_form,
    metropolis_edge_weights,
    metropolis_weight_matrix,
    parse_config,
    ratio_consensus,
)
from conftest import degrees, feeder, neighbor_lists, path_topology, reference_topology
from conftest import symmetrised_spectrum, tree_topology
from conftest import random_connected_topology
from test_scale import stub_paired_mesh

CRIT = ConvergenceCriteria()

def dense_degree_reference(topology):
    """Loop-built dense degree weights: column j holds 1/(1 + deg(j)) at j
    and at each of j's neighbors."""
    n = topology.n
    w = np.zeros((n, n))
    share = 1.0 / (1.0 + degrees(topology))
    for j, nbrs in enumerate(neighbor_lists(topology)):
        w[j, j] = share[j]
        for nbr in nbrs:
            w[nbr - 1, j] = share[j]
    return w


def dense_metropolis_reference(topology):
    """Loop-built dense Metropolis weights; the diagonal is one minus the
    dense row sum."""
    n = topology.n
    w = np.zeros((n, n))
    deg = degrees(topology)
    for i, j in topology.edges:
        a = 1.0 / (1.0 + max(deg[i - 1], deg[j - 1]))
        w[i - 1, j - 1] = a
        w[j - 1, i - 1] = a
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def test_build_topology_canonicalizes_edges():
    topo = build_topology(4, [(3, 2), (1, 2), (4, 3)])
    assert topo.edges == ((1, 2), (2, 3), (3, 4))
    assert topo.max_degree == 2


def test_build_topology_single_node():
    topo = build_topology(1, [])
    assert topo.n == 1
    assert topo.edges == ()
    assert topo.max_degree == 0


def test_endpoint_out_of_range():
    with pytest.raises(EndpointOutOfRangeError):
        build_topology(3, [(1, 2), (2, 4)])
    # True == 1, but an endpoint is a node number, not a flag
    for edge in ((0, 1), (True, 2), (1, False), (np.int64(1), True)):
        with pytest.raises(EndpointOutOfRangeError):
            build_topology(3, [edge, (2, 3)])


def test_edge_errors_quote_the_edge_and_say_what_is_wrong():
    # build_topology is the only edge check on the way from a config file,
    # so its messages say whether an endpoint is not an integer or is out
    # of range, and quote the edge as given
    cases = (
        ([1, 1.5], "endpoint 1.5 is not an integer"),
        ([1, "1"], "endpoint '1' is not an integer"),
        ([True, 2], "endpoint True is not an integer"),
        ((2, False), "endpoint False is not an integer"),
        ([0, 1], "endpoint 0 outside 1..3"),
        ((np.int64(2), 4), "endpoint 4 outside 1..3"),
    )
    for edge, problem in cases:
        with pytest.raises(EndpointOutOfRangeError) as info:
            build_topology(3, [(1, 2), edge, (2, 3)])
        assert str(info.value) == f"edge {edge!r}: {problem}"
    with pytest.raises(SelfLoopError, match=r"^edge \[2, 2\] is a self-loop$"):
        build_topology(3, [[1, 2], [2, 2]])
    with pytest.raises(DuplicateEdgeError,
                       match=r"^edge \[2, 1\] repeats the edge \(1, 2\)$"):
        build_topology(3, [[1, 2], [2, 1]])


def test_malformed_edge_rejected():
    for edge in ((1, 2, 3), (1,), 7, None):
        with pytest.raises(TopologyError, match="not a pair") as info:
            build_topology(3, [(1, 2), edge, (2, 3)])
        assert repr(edge) in str(info.value)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_topology(3, [(1, 2), (2, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_topology(3, [(1, 2), (2, 1)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError) as info:
        build_topology(4, [(1, 2), (3, 4)])
    assert str(info.value) == "graph is disconnected: nodes [3, 4] unreachable from node 1 (2 of 4)"
    with pytest.raises(DisconnectedGraphError):
        build_topology(2, [])


ENDPOINT_FAULTS = {
    "bool": lambda v: v == 1,
    "float": float,
    "str": str,
    "int64": np.int64,  # no fault: numpy integers are endpoints
    "past-int64": lambda v: 2**63 + v,
    "below-int64": lambda v: -(2**63) - v,
    "zero": lambda v: 0,
}


EDGE_FAULTS = (None, *ENDPOINT_FAULTS, "beyond-n", "short", "long", "no-sequence",
               "self-loop", "duplicate", "reversed-duplicate", "isolated-node",
               "isolated-edge")


@st.composite
def edge_lists(draw, fault):
    """A node count and a connected edge list, shuffled, each edge a list
    or a tuple in either orientation, carrying the named fault (None for
    none) at a random place."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    edges = [list(e) for e in draw(st.permutations(sorted(edges)))]
    edges = [(e[::-1] if draw(st.booleans()) else e) for e in edges]
    edges = [draw(st.sampled_from((list, tuple)))(e) for e in edges]
    k = draw(st.integers(0, len(edges) - 1))
    side = draw(st.integers(0, 1))
    edge = list(edges[k])
    if fault in ENDPOINT_FAULTS or fault == "beyond-n":
        edge[side] = n + 1 if fault == "beyond-n" else ENDPOINT_FAULTS[fault](edge[side])
        edges[k] = type(edges[k])(edge)
    elif fault in ("short", "long"):
        edges[k] = type(edges[k])(edge[:1] if fault == "short" else edge + [n])
    elif fault == "no-sequence":
        edges[k] = draw(st.sampled_from((7, None, "12")))
    elif fault == "self-loop":
        edges.insert(k, (edge[side], edge[side]))
    elif fault in ("duplicate", "reversed-duplicate"):
        edges.insert(draw(st.integers(0, len(edges))),
                     edge[::-1] if fault == "reversed-duplicate" else edge)
    elif fault == "isolated-node":
        n += 1
    elif fault == "isolated-edge":
        edges.insert(k, [n + 1, n + 2])
        n += 2
    return n, edges


def topology_or_error(build, n, edges):
    try:
        return build(n, edges)
    except TopologyError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fault", EDGE_FAULTS, ids=str)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_build_topology_matches_the_reference_loop(fault, data):
    # the array checks build the same topology, of plain ints, as the loop
    # over edges, or raise the same class with the same message
    n, edges = data.draw(edge_lists(fault))
    built = topology_or_error(build_topology, n, edges)
    assert built == topology_or_error(reference_topology, n, edges)
    assert built == topology_or_error(GridTopology, n, edges)
    if isinstance(built, tuple):
        return
    assert {type(x) for edge in built.edges for x in edge} <= {int}
    assert type(built.max_degree) is int


def test_pairs_of_other_sequences_are_edges():
    # any item of length 2 is an edge, as in the checks one edge at a time
    rows = np.array([[2, 1], [3, 2]])
    assert build_topology(3, rows) == reference_topology(3, rows)
    assert build_topology(3, iter([range(1, 3), {3: 0, 2: 0}])).edges == ((1, 2), (2, 3))
    # an edge must have a length: two endpoints from an iterator are not one
    pair = iter((1, 2))
    with pytest.raises(TopologyError, match="is not a pair of endpoints") as info:
        build_topology(2, [pair])
    assert type(info.value) is TopologyError


@st.composite
def split_graphs(draw):
    """A node count and edge list of 1 to 4 components, each a random tree
    plus chords, or an isolated node, the nodes relabelled by a random
    permutation and the edges listed in random order."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    edges, start = [], 0
    for size in sizes:
        for v in range(1, size):
            edges.append((start + draw(st.integers(0, v - 1)), start + v))
        for i, j in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)), max_size=3)):
            chord = (start + min(i, j), start + max(i, j))
            if i != j and chord not in edges:
                edges.append(chord)
        start += size
    label = draw(st.permutations(range(1, start + 1)))
    return start, [(label[i], label[j]) for i, j in draw(st.permutations(edges))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graph=split_graphs())
def test_connectivity_matches_the_reference_search(graph):
    # one component builds the reference's topology; more raise its
    # DisconnectedGraphError, naming the same nodes in the same words
    n, edges = graph
    assert topology_or_error(build_topology, n, edges) == \
        topology_or_error(reference_topology, n, edges)


def zigzag_path(n):
    # 1, n, 2, n - 1, ...: each edge joins a low label to a high one
    order = [k for pair in zip(range(1, n + 1), range(n, 0, -1)) for k in pair][:n]
    return list(zip(order, order[1:]))


FIXED_GRAPHS = {
    "single-node": (1, []),
    "zigzag-path": (1000, zigzag_path(1000)),
    "star-hub-last": (1000, [(i, 1000) for i in range(1, 1000)]),
    "binary-tree": (1023, [(i // 2, i) for i in range(2, 1024)]),
}


@pytest.mark.parametrize("name", FIXED_GRAPHS)
def test_connectivity_of_fixed_graphs_matches_the_reference(name):
    # whole, each graph is connected; with its last edge gone, it is not
    n, edges = FIXED_GRAPHS[name]
    assert build_topology(n, edges) == reference_topology(n, edges)
    if edges:
        built = topology_or_error(build_topology, n, edges[:-1])
        assert built[0] is DisconnectedGraphError
        assert built == topology_or_error(reference_topology, n, edges[:-1])


def test_large_lattice_connectivity_names_the_cut_off_nodes():
    # a 200 x 200 lattice under shuffled labels is one component; cut the
    # edges across one column boundary and the side without node 1 is
    # unreachable, named in summary with its count
    k = 200
    cell = np.arange(k * k).reshape(k, k)
    label = np.random.default_rng(5).permutation(k * k) + 1
    across = np.stack((cell[:, :-1].ravel(), cell[:, 1:].ravel()), axis=1)
    down = np.stack((cell[:-1].ravel(), cell[1:].ravel()), axis=1)
    assert build_topology(k * k, label[np.concatenate((across, down))]).n == k * k
    cut = 120
    kept = across[across[:, 0] % k != cut - 1]
    assert len(kept) == len(across) - k
    sides = label[cell[:, :cut]], label[cell[:, cut:]]
    missing = np.sort(sides[1] if 1 in sides[0] else sides[0], axis=None)
    shown = np.array2string(missing, separator=", ", threshold=10)
    message = f"nodes {shown} unreachable from node 1 ({missing.size} of {k * k})"
    assert "..." in shown
    with pytest.raises(DisconnectedGraphError, match=re.escape(message)):
        build_topology(k * k, label[np.concatenate((kept, down))])


def test_bad_node_count():
    for n in (0, -1, 2.0, True, False):
        with pytest.raises(TopologyError, match="node count"):
            build_topology(n, [])


def test_numpy_node_count_is_an_integer():
    # numpy integers are endpoints, so they are node counts too, kept as int
    topology = build_topology(np.int64(3), [(1, 2), (2, 3)])
    assert topology == build_topology(3, [(1, 2), (2, 3)])
    assert type(topology.n) is int


@pytest.mark.parametrize("edges", [5, None])
def test_edges_that_are_not_iterable_are_a_topology_error(edges):
    with pytest.raises(TopologyError, match=rf"^edges must be an iterable of pairs, got {edges}$"):
        build_topology(3, edges)


@pytest.mark.parametrize(("n", "edges"), [
    (0, []), (2.0, [(1, 2)]), (True, []), (3, 5), (3, None),
    (3, np.array([[1, 2]])),          # disconnected
    (3, np.array([[1, 5], [1, 2]])),  # beyond n
    (3, np.array([[1.0, 2.0], [2.0, 3.0]])),
])
def test_direct_construction_checks_the_edges_as_build_topology_does(n, edges):
    # the class is public and a ScenarioConfig takes any instance of it, so
    # building one directly raises the same class with the same message
    # (edge lists: test_build_topology_matches_the_reference_loop)
    with pytest.raises(TopologyError) as built:
        build_topology(n, edges)
    with pytest.raises(TopologyError) as direct:
        GridTopology(n, edges)
    assert (type(direct.value), str(direct.value)) == (type(built.value), str(built.value))


def test_direct_construction_keeps_the_canonical_form():
    # a list, and rows against the i < j orientation that flow signs rely on
    topology = GridTopology(3, [[2, 1], [3, 2]])
    assert topology.edge_array.tolist() == [[1, 2], [2, 3]]
    assert topology.edge_array.dtype == np.int64 and not topology.edge_array.flags.writeable
    assert topology == build_topology(3, [(1, 2), (2, 3)])
    assert type(GridTopology(np.int64(1), np.zeros((0, 2), np.int64)).n) is int


def test_edges_are_stored_once_as_a_read_only_array():
    topo = build_topology(4, [(3, 2), (1, 2), (4, 3)])
    assert topo.edge_array.dtype == np.int64 and topo.edge_array.shape == (3, 2)
    assert topo.edge_array.tolist() == [[1, 2], [2, 3], [3, 4]]
    with pytest.raises(ValueError):
        topo.edge_array[0, 0] = 2
    assert build_topology(1, []).edge_array.shape == (0, 2)
    # the tuples are built on the first read, not with the topology
    assert "edges" not in vars(topo) and "max_degree" not in vars(topo)
    assert topo.edges is topo.edges and topo.max_degree == 2


def test_equal_topologies_compare_and_hash_alike():
    # on n and the pairs, whichever array holds them and whether or not
    # the tuples were read
    a = build_topology(3, [(1, 2), (2, 3)])
    b = GridTopology(n=3, edge_array=np.array([[1, 2], [2, 3]]))
    assert a.edges == ((1, 2), (2, 3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == reference_topology(3, [(3, 2), (2, 1)])
    assert a != build_topology(3, [(1, 2), (1, 3)])
    assert a != build_topology(4, [(1, 2), (2, 3), (3, 4)])
    assert a != (3, ((1, 2), (2, 3)))


def test_topology_keeps_no_python_object_per_edge():
    # about 60 000 edges: the (m, 2) int64 array is 16 bytes an edge; a
    # tuple per edge would add 64 or more
    n = 20_000
    edges = [(i, i + s) for s in (1, 2, 3) for i in range(1, n - s + 1)]
    assert len(edges) == 59_994
    build_topology(3, [(1, 2), (2, 3)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        topo = build_topology(n, edges)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert topo.n == n and kept <= 32 * len(edges)


def test_edge_index_arrays():
    topo = build_topology(3, [(1, 2), (2, 3)])
    heads, tails = topo.edge_index_arrays()
    assert heads.tolist() == [0, 1]
    assert tails.tolist() == [1, 2]


def test_edge_index_arrays_are_built_once_and_read_only():
    topo = build_topology(3, [(1, 2), (2, 3)])
    heads, tails = topo.edge_index_arrays()
    again = topo.edge_index_arrays()
    assert again[0] is heads and again[1] is tails
    for arr in (heads, tails):
        with pytest.raises(ValueError):
            arr[0] = 2
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    assert topo.edge_index_arrays()[0].tolist() == [0, 1]


def test_weights_are_built_once_and_read_only():
    topo = build_topology(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for build in (degree_weight_matrix, metropolis_weight_matrix):
        w = build(topo)
        assert build(topo) is w
        for arr in (w.storage.rows, w.storage.cols, w.data):
            with pytest.raises(ValueError):
                arr[0] = 7
        # the interval sets every later caller's rounds, so it is fixed too
        interval = w.interval
        with pytest.raises(AttributeError):
            w.interval = (-1.0, 0.0)
        assert w.interval is interval
    # both matrices store their entries on the topology's one storage: each
    # edge from its tail, then from its head, then the diagonal
    q, s = degree_weight_matrix(topo), metropolis_weight_matrix(topo)
    storage = q.storage
    assert s.storage is storage
    heads, tails = topo.edge_index_arrays()
    assert storage.rows.tolist() == tails.tolist() + heads.tolist() + [0, 1, 2, 3]
    assert storage.cols.tolist() == heads.tolist() + tails.tolist() + [0, 1, 2, 3]
    # an equal topology built separately has its own instances
    assert degree_weight_matrix(build_topology(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) \
        is not degree_weight_matrix(topo)


def test_stationary_vector_is_kept_by_the_weights():
    rng = np.random.default_rng(13)
    for _ in range(20):
        topo = random_connected_topology(int(rng.integers(1, 20)), rng)
        q = degree_weight_matrix(topo)
        assert np.array_equal(q.stationary, 1.0 + degrees(topo))
        assert np.max(np.abs(q @ q.stationary - q.stationary)) <= 1e-13
        assert metropolis_weight_matrix(topo).stationary is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("random", "path", "tree")),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
# Lanczos misses here: the degree weights' interval starts at -0.35772, and
# their lowest eigenvalue is -0.36301
@example(kind="random", n=27, seed=27)
def test_measured_interval_brackets_the_spectrum(kind, n, seed):
    # The interval sits inside [-1, 1), and mostly holds every eigenvalue but
    # the consensus eigenvalue 1, to within float dust. Lanczos from its one
    # start vector can miss one (3 of the 14 040 weight matrices of every
    # kind, n = 2..40 and seeds 0..59), and then what the engines rely on
    # holds instead: the fallback interval covers it, and both engines on
    # those weights still meet their oracles.
    rng = np.random.default_rng(seed)
    if kind == "random":
        topo = random_connected_topology(n, rng, float(rng.uniform(0.0, 0.3)))
    else:
        topo = tree_topology(kind, n, rng)
    for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
        lo, hi = weights.interval
        assert -1.0 <= lo <= hi < 1.0
        eig = symmetrised_spectrum(weights)
        assert abs(eig[-1] - 1.0) <= 1e-12
        if n == 1 or lo - 1e-9 <= eig[0] and eig[-2] <= hi + 1e-9:
            continue
        wide_lo, wide_hi = weights.fallback().interval
        assert wide_lo <= eig[0] and eig[-2] <= wide_hi
        x0, y0, g0 = rng.uniform(-5.0, 5.0, n), rng.uniform(0.1, 4.0, n), rng.uniform(-8.0, 8.0, n)
        res = ratio_consensus(weights, x0, y0, CRIT)
        assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps
        acc = flow_accumulate(topo, weights, g0, CRIT)
        assert np.max(np.abs(acc.h - flow_closed_form(g0 - g0.mean(), topo))) <= n * CRIT.eps


def test_interval_is_measured_on_first_use_only(monkeypatch):
    # Neither set-up nor the weight build runs Lanczos; the first read of
    # each matrix's interval does, once, and keeps it.
    calls = []
    measure = graph_mod._lanczos_interval
    monkeypatch.setattr(graph_mod, "_lanczos_interval",
                        lambda weights: calls.append(weights) or measure(weights))
    config = parse_config({
        "mode": "without", "horizon": 1,
        "nodes": [{"id": i, "gen": [0, 10], "net": [-5, 15]} for i in range(1, 6)],
        "edges": [[i, i + 1] for i in range(1, 5)],
        "desired": {"kind": "seeded"},
    })
    q = degree_weight_matrix(config.topology)
    s = metropolis_weight_matrix(config.topology)
    assert calls == []
    for _ in range(2):
        assert q.interval == q.interval and s.interval == s.interval
    assert calls == [q, s]


def test_intervals_are_bit_identical_whichever_matrix_comes_first():
    rng = np.random.default_rng(17)
    for n in (2, 9, 40, 120):
        edges = random_connected_topology(n, rng, 0.05).edges
        first, second = build_topology(n, edges), build_topology(n, edges)
        degree_first = [degree_weight_matrix(first).interval,
                        metropolis_weight_matrix(first).interval]
        metropolis_first = [metropolis_weight_matrix(second).interval,
                            degree_weight_matrix(second).interval][::-1]
        assert degree_first == metropolis_first


def test_fallback_widens_the_interval_on_the_same_weights():
    topo = random_connected_topology(12, np.random.default_rng(19))
    for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
        hi = weights.interval[1]
        wide = weights.fallback()
        assert wide.interval == (-1.0, 1.0 - (1.0 - hi) / 4.0)
        assert wide.stationary is weights.stationary
        assert wide.data is weights.data
        assert wide.storage is weights.storage
        # widening again quarters the distance to 1 again, down to 4u and
        # no further: hi never reaches 1, which SparseWeights rejects, and mu
        # stays above 1
        his = [hi]
        for _ in range(40):
            wide = wide.fallback()
            wide.shifted()  # every widened interval, and its shift, constructs
            his.append(wide.interval[1])
        assert his == sorted(his) and his[-1] == his[-2] < 1.0
        assert 1.0 - his[-1] >= 4.0 * graph_mod._UNIT_ROUNDOFF
        assert graph_mod._chebyshev_mu(wide.interval) > 1.0
    # the constructor decides with the rounds' own mu, bit for bit: at the
    # 4u cap mu is one step above 1, and only a pinned hi of nextafter(1, 0)
    # cannot widen
    capped = (-1.0, 1.0 - 4.0 * graph_mod._UNIT_ROUNDOFF)
    assert graph_mod._chebyshev_mu(capped) == 1.0000000000000004
    weights.with_interval(capped).shifted()
    top = weights.with_interval((0.0, math.nextafter(1.0, 0.0)))
    with pytest.raises(ValueError, match="mu > 1"):
        top.fallback()


def test_breakdown_measures_the_spectrum_edges_below_one():
    # Below the settled rule's fifteen steps Lanczos can only stop at a
    # breakdown: the Krylov space is invariant, its Ritz values are the
    # extreme eigenvalues, and hi stays below 1 without any cap from the
    # graph
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 8, 12):
        for topo in (build_topology(n, [(i, i + 1) for i in range(1, n)]),
                     random_connected_topology(n, rng, 0.4)):
            for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
                (lo, hi), steps = graph_mod._lanczos_interval(weights)
                assert steps <= n - 1
                eig = symmetrised_spectrum(weights)
                assert hi == pytest.approx(eig[-2], abs=1e-12)
                assert lo == pytest.approx(eig[0], abs=1e-12)
                assert hi < 1.0


def test_ritz_pair_matches_the_dense_eigendecomposition(monkeypatch):
    # _ritz_pair against LAPACK's eigh of the tridiagonal T: random
    # tridiagonals with |alpha| <= 1/2 and beta <= 1/4, whose spectra lie in
    # [-1, 1] as it assumes, and the checks Lanczos makes on path-300 (every
    # one) and on the 1002-node feeder (the last top check and the bottom),
    # where lost orthogonality repeats Ritz values. Laguerre's iteration
    # moves from outside towards the extreme root and never passes it, so
    # theta never lies inside the spectrum. Where the extreme is a simple
    # root it lands on it, and the residual matches b |y_k| of eigh's
    # vector; the pivots give y_k^2, so the match is in squares, to 1e-12.
    # Two Ritz values closer than that tolerance count as one double root,
    # where Laguerre converges only linearly: the feeder's Metropolis
    # bottom (gap 1.1e-15) runs its 50 steps and stops 2.6e-9 outside it.
    # The other checks take at most 46 steps (12 on random tridiagonals).
    calls = []
    measure = graph_mod._ritz_pair
    monkeypatch.setattr(graph_mod, "_ritz_pair", lambda alpha, beta, b, side: (
        calls.append((list(alpha), list(beta), b, side)) or measure(alpha, beta, b, side)))
    cases = []
    for topo, last in ((path_topology(300), None), (feeder(334), 2)):
        for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
            calls.clear()
            graph_mod._lanczos_interval(weights)
            cases += calls[-last:] if last else calls
    rng = np.random.default_rng(29)
    for _ in range(200):
        k = int(rng.integers(1, 61))
        alpha, beta = rng.uniform(-0.5, 0.5, k), rng.uniform(0.0, 0.25, k - 1)
        b = float(rng.uniform(0.0, 0.25))
        cases += [(alpha.tolist(), beta.tolist(), b, side) for side in (1.0, -1.0)]
    for alpha, beta, b, side in cases:
        theta, r = measure(alpha, beta, b, side)
        lam, vec = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        i = -1 if side > 0 else 0
        gap = abs(lam[i] - lam[-2 if side > 0 else 1]) if len(alpha) > 1 else math.inf
        assert side * (theta - lam[i]) >= -1e-12
        if gap >= 1e-12:
            assert abs(theta - lam[i]) <= 1e-12
            assert abs(r * r - (b * vec[-1, i]) ** 2) <= 1e-12 * b * b


def test_widening_measures_nothing_again(monkeypatch):
    # the widened interval comes from hi alone: after the first measurement
    # neither fallback() nor the shifted weights on the widened interval
    # run Lanczos
    calls = []
    measure = graph_mod._lanczos_interval
    monkeypatch.setattr(graph_mod, "_lanczos_interval",
                        lambda weights: calls.append(weights) or measure(weights))
    weights = degree_weight_matrix(build_topology(20, [(i, i + 1) for i in range(1, 20)]))
    wide = weights
    for _ in range(5):
        wide = wide.fallback()
        wide.shifted()
    assert calls == [weights]
    assert wide.interval[0] == -1.0 and weights.interval[1] < wide.interval[1] < 1.0


def test_shifted_weights_map_the_interval_onto_plus_minus_one_over_mu():
    topo = build_topology(30, [(i, i + 1) for i in range(1, 30)])
    for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
        lo, hi = weights.interval
        c = weights.shift
        assert c == (lo + hi) / 2.0
        p = weights.shifted()
        assert p is weights.shifted()
        expected = (weights.toarray() - c * np.eye(30)) / (1.0 - c)
        assert np.max(np.abs(p.toarray() - expected)) <= 1e-15
        mu = (1.0 - c) / ((hi - lo) / 2.0)
        assert p.interval == pytest.approx((-1.0 / mu, 1.0 / mu), abs=1e-15)
        # the column sums, and so the sums of the values, are kept
        assert np.allclose(p.toarray().sum(axis=0), weights.toarray().sum(axis=0),
                           atol=1e-14)


def test_sparse_weights_reject_an_interval_outside_minus_1_1():
    w = degree_weight_matrix(build_topology(2, [(1, 2)]))
    for interval in ((-1.5, 0.0), (0.2, 0.1), (0.0, 1.0)):
        with pytest.raises(ValueError):
            w.with_interval(interval)
    # these lie in [-1, 1), but the Chebyshev rounds need mu > 1, where
    # their bound 1/cosh(k acosh mu) shrinks: on the first mu rounds to 1,
    # and on the one-point ones the half-width floor puts it below 1, out
    # of the domain of acosh
    path5 = build_topology(5, [(i, i + 1) for i in range(1, 5)])
    for w in (degree_weight_matrix(path5), metropolis_weight_matrix(path5)):
        for interval in ((-1.0, math.nextafter(1.0, 0.0)),
                         (1.0 - 1e-16, 1.0 - 1e-16), (1.0 - 1e-10, 1.0 - 1e-10)):
            assert graph_mod._chebyshev_mu(interval) <= 1.0
            with pytest.raises(ValueError, match="mu > 1"):
                w.with_interval(interval)


def test_degree_weights_path3_exact(path3):
    # shares: 1/(1+deg) = (1/2, 1/3, 1/2); column j filled at j and its
    # neighbors, hand-derived
    w = degree_weight_matrix(path3).toarray()
    expected = np.array([
        [1 / 2, 1 / 3, 0.0],
        [1 / 2, 1 / 3, 1 / 2],
        [0.0, 1 / 3, 1 / 2],
    ])
    assert np.allclose(w, expected, atol=1e-15)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-15)


def test_metropolis_weights_path3_exact(path3):
    # off-diagonal 1/(1+max degree) = 1/3 on both edges; diagonal soaks
    # up the remainder: (2/3, 1/3, 2/3), hand-derived
    w = metropolis_weight_matrix(path3).toarray()
    expected = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    assert np.allclose(w, expected, atol=1e-15)


def test_metropolis_weights_star5_exact():
    # every edge touches the degree-4 center, so each gets weight 1/5;
    # the center keeps 1 - 4/5, each leaf keeps 1 - 1/5
    star = build_topology(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    w = metropolis_weight_matrix(star).toarray()
    assert np.allclose(w[0, 1:], 0.2, atol=1e-15)
    assert np.allclose(w[1:, 0], 0.2, atol=1e-15)
    assert w[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert np.allclose(np.diag(w)[1:], 0.8, atol=1e-15)


def test_metropolis_edge_weights_align_with_edges(path3):
    assert np.allclose(metropolis_edge_weights(path3), [1 / 3, 1 / 3])


def test_metropolis_edge_weights_match_per_edge_formula():
    rng = np.random.default_rng(8)
    for _ in range(50):
        topo = random_connected_topology(int(rng.integers(1, 25)), rng)
        deg = degrees(topo)
        expected = [1.0 / (1.0 + max(deg[i - 1], deg[j - 1])) for i, j in topo.edges]
        assert metropolis_edge_weights(topo).tolist() == expected


def test_sparse_weights_match_loop_references():
    # Degree weights and Metropolis off-diagonals are the same float values,
    # so they must match exactly. A Metropolis diagonal sums the row's
    # off-diagonals in column order where the dense reference sums the
    # whole row pairwise; reordering a sum of deg(i) terms in [0, 1/2] that
    # totals at most 1 moves it by at most (deg(i) - 1) * eps, and 1 - sum
    # rounds by at most eps / 2 more, hence the deg(i) * eps tolerance.
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        topo = random_connected_topology(n, rng)
        q = degree_weight_matrix(topo)
        s = metropolis_weight_matrix(topo)
        assert isinstance(q, SparseWeights) and isinstance(s, SparseWeights)
        assert q.shape == s.shape == (n, n)
        assert np.array_equal(q.toarray(), dense_degree_reference(topo))
        s_dense, s_ref = s.toarray(), dense_metropolis_reference(topo)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(s_dense[off], s_ref[off])
        gap = np.abs(np.diag(s_dense) - np.diag(s_ref))
        assert np.all(gap <= degrees(topo) * np.finfo(float).eps)


def test_sparse_round_matches_dense_product():
    # bincount adds each row in storage order (lower neighbors, higher
    # neighbors, then the diagonal), a dense product in BLAS order; either
    # stays within a small multiple of eps of the exact sum,
    # relative to sum_j |w_ij x_j|
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 41))
        topo = random_connected_topology(n, rng)
        x = rng.uniform(-10.0, 10.0, n)
        for w in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
            dense = w.toarray()
            scale = np.abs(dense) @ np.abs(x)
            assert np.all(np.abs(w @ x - dense @ x) <= 1e-13 * scale)


def test_sparse_weights_reject_data_of_the_wrong_length():
    # path-3 stores 2 entries per edge and 3 on the diagonal
    storage = degree_weight_matrix(path_topology(3)).storage
    SparseWeights(storage, np.ones(7))
    for shape in (0, 6, 8, (7, 1)):
        with pytest.raises(ValueError, match=r"one entry per stored entry \(7\), got shape"):
            SparseWeights(storage, np.ones(shape))


def test_shifted_weights_move_the_diagonal_whatever_the_data():
    # the storage keeps the diagonal last, so shifted() subtracts c there
    storage = degree_weight_matrix(path_topology(2)).storage
    w = SparseWeights(storage, np.array([0.4, 0.4, 0.6, 0.6]), interval=(-0.5, 0.1))
    assert np.allclose(w.shifted().toarray(), [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)


def test_lanczos_stops_at_its_step_cap():
    # random positive data on a path's storage is not reversible: Lanczos
    # on it never settled, and now stops after 2n + 15 steps
    storage = degree_weight_matrix(path_topology(120)).storage
    data = np.random.default_rng(31).uniform(0.1, 1.0, storage.rows.size)
    weights = SparseWeights(storage, data)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="did not settle within 255 steps"):
        weights.interval
    assert time.perf_counter() - start < 1.0


def sequential_product(weights, x):
    """W @ x the way ``np.bincount`` adds it: per row, data[k] * x[cols[k]]
    over the row's entries k in storage order, added one by one from 0.0
    in Python floats."""
    entries = [[] for _ in range(weights.shape[0])]
    for k, (r, c, w) in enumerate(zip(weights.storage.rows.tolist(),
                                      weights.storage.cols.tolist(),
                                      weights.data.tolist())):
        entries[r].append((w, c))
    out = np.empty(x.shape)
    for r, row in enumerate(entries):
        for j in np.ndindex(x.shape[1:]):
            total = 0.0
            for w, c in row:
                total += w * float(x[(c,) + j])
            out[(r,) + j] = total
    return out


def random_recursive_tree(n: int, rng: np.random.Generator):
    """Node k + 1 joins a uniformly chosen earlier node."""
    return build_topology(n, [(int(rng.integers(1, k + 1)), k + 1) for k in range(1, n)])


def test_slot_product_is_bit_identical_to_sequential_row_sums():
    # the slot-major product adds each row's products in storage order from
    # +0.0, padded slots and the hub rows' spill included, so it matches the
    # sequential sum bit for bit, -0.0 entries and all-(-0.0) rows too
    rng = np.random.default_rng(5)
    star = build_topology(60, [(1, k) for k in range(2, 61)])
    graphs = [feeder(40), build_topology(300, stub_paired_mesh(300, 6, random.Random(3))),
              path_topology(50), random_recursive_tree(80, rng), star]
    for topo in graphs:
        n = topo.n
        for weights in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
            # W first: its interval, which the other forms read, needs its product
            for form in (lambda: weights, weights.shifted, weights.fallback,
                         lambda: weights.with_interval((-0.5, 0.5))):
                form = form()
                assert form.storage is weights.storage
                for shape in ((n,), (n, 2)):
                    for _ in range(2):
                        x = rng.standard_normal(shape)
                        x[rng.random(shape) < 0.2] = -0.0
                        if len(shape) == 2:
                            x[:, 1] = -0.0
                        got = form @ x
                        assert got.shape == shape
                        assert np.array_equal(got.view(np.int64),
                                              sequential_product(form, x).view(np.int64))
        index, where, spill = weights.storage.index, weights.storage.where, weights.storage.spill
        nnz = weights.data.size
        assert np.count_nonzero(where == nnz) <= 2 * nnz
    # the star's hub row runs past the slot width, and spills
    assert spill.size == 60 - index.shape[0] > 0
    # every matrix on a topology shares its one storage, and its slot layout
    q, s = degree_weight_matrix(star), metropolis_weight_matrix(star)
    assert q.storage is s.storage is q.shifted().storage is s.fallback().storage


def test_weights_memory_is_linear_on_large_ring():
    # a dense 10 000-node matrix would take 800 MB; per-edge storage takes
    # a few bytes per node and edge
    n = 10_000
    ring = build_topology(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
    q = degree_weight_matrix(ring)
    s = metropolis_weight_matrix(ring)
    for w in (q, s):
        assert isinstance(w, SparseWeights)
        assert w.shape == (n, n)
        assert w.nbytes <= 64 * (n + len(ring.edges))
        # the index arrays are the topology's; a matrix adds only its data
        assert w.nbytes == 8 * (2 * len(ring.edges) + n)
        assert w.storage is q.storage
    e1 = np.zeros(n)
    e1[0] = 1.0
    out = q @ e1
    assert out[[0, 1, n - 1]].tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert np.count_nonzero(out) == 3


def test_weight_matrices_properties_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        topo = random_connected_topology(n, rng)
        q = degree_weight_matrix(topo).toarray()
        s = metropolis_weight_matrix(topo).toarray()
        assert np.all(q >= 0) and np.all(s >= -1e-15)
        assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(s.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(s - s.T)) == 0.0
        # support matches the topology
        heads, tails = topo.edge_index_arrays()
        off = np.ones((n, n), dtype=bool)
        np.fill_diagonal(off, False)
        off[heads, tails] = False
        off[tails, heads] = False
        assert np.all(q[off] == 0.0)
        assert np.all(s[off] == 0.0)


def test_random_topology_deterministic_per_seed():
    a = random_connected_topology(9, np.random.default_rng(7))
    b = random_connected_topology(9, np.random.default_rng(7))
    assert a.edges == b.edges


def test_random_topology_always_connected():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        topo = random_connected_topology(n, rng, extra_edge_prob=0.1)
        assert topo.n == n  # build_topology would have raised if disconnected


# The first three draws of each seed, as float64 bit patterns. For seed 0
# the first is SplitMix64's published first output from state 0,
# 0xe220a8397b1dcdaf, shifted right by 11 and scaled by 2^-53.
_FIRST_DRAWS = {
    0: (0x3FEC4415072F63B9, 0x3FDB9E279AA86E58, 0x3F9B117462002500),
    7: (0x3FD8F2F879164C82, 0x3F9130F35FD0F180, 0x3FECD30810175625),
    2**64 + 5: (0x3FE52D3DE0A1435F, 0x3FEDD9AB25EA9FAF, 0x3FDAFFB8CAF8B58E),
}


@pytest.mark.parametrize("seed", list(_FIRST_DRAWS), ids=["0", "7", "2**64+5"])
def test_uniform_draws_are_pinned(seed):
    assert tuple(graph_mod._uniform(seed, 3).view(np.uint64).tolist()) == _FIRST_DRAWS[seed]
    assert graph_mod._uniform(0, 1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", list(_FIRST_DRAWS), ids=["0", "7", "2**64+5"])
def test_uniform_draws_are_repeatable_in_range_and_uniform(seed):
    # bounds fixed beforehand: about 5 standard errors for the mean of 10^5
    # draws (1/sqrt(12 10^5) = 9.1e-4), and 6 for their variance (2.4e-4)
    u = graph_mod._uniform(seed, 10**5)
    assert u.dtype == np.float64 and u.shape == (10**5,)
    assert np.array_equal(u, graph_mod._uniform(seed, 10**5))
    assert np.array_equal(u[:10], graph_mod._uniform(seed, 10))  # draw i depends on i alone
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) <= 5e-3
    assert abs(u.var() - 1.0 / 12.0) <= 1.5e-3


@given(st.integers(0, 2**80 - 1), st.integers(0, 2**80 - 1), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_distinct_seeds_draw_distinct_streams(a, b, same_low_limb):
    # seeds past 2^64 fold their high limb into the key, so two seeds that
    # share their low 64 bits still draw apart
    if same_low_limb:
        b = b >> 64 << 64 | a & (2**64 - 1)
    if a != b:
        assert not np.array_equal(graph_mod._uniform(a, 4), graph_mod._uniform(b, 4))
