"""Shared fixtures: the six-node reference system and random instance helpers."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from gridconsensus import (
    DENOMINATOR_FLOOR,
    ConsensusResult,
    ConvergenceError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    FlowAccumulator,
    GridState,
    GridTopology,
    NodeCapacities,
    SelfLoopError,
    TopologyError,
    build_topology,
    compute_delta_bounds,
    metropolis_edge_weights,
)
from gridconsensus.graph import _chebyshev_mu

# Reference six-node system used throughout: generation and net-power
# intervals per node, ring topology with one chord.
REF_GEN_CAPS = ((10, 50), (20, 80), (20, 40), (10, 45), (15, 60), (10, 55))
REF_NET_CAPS = ((10, 80), (20, 120), (20, 60), (10, 75), (15, 90), (10, 80))
RING_CHORD_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4))

# Closed-form split of demand 150 over the reference system, recomputed
# independently with exact rational arithmetic before being frozen here.
DESIRED_AT_150 = (
    20.612244897959183,
    35.91836734693877,
    25.306122448979593,
    19.285714285714285,
    26.93877551020408,
    21.93877551020408,
)


def make_reference_caps() -> NodeCapacities:
    return NodeCapacities(
        gen_lo=[g[0] for g in REF_GEN_CAPS],
        gen_hi=[g[1] for g in REF_GEN_CAPS],
        net_lo=[v[0] for v in REF_NET_CAPS],
        net_hi=[v[1] for v in REF_NET_CAPS],
    )


@pytest.fixture
def ref_caps() -> NodeCapacities:
    return make_reference_caps()


@pytest.fixture
def ring_chord():
    return build_topology(6, RING_CHORD_EDGES)


@pytest.fixture
def path3():
    return build_topology(3, [(1, 2), (2, 3)])


def path_topology(n: int):
    """Nodes 1..n in a line: the slowest-mixing tree of its size."""
    return build_topology(n, [(i, i + 1) for i in range(1, n)])


def degrees(topology) -> np.ndarray:
    """Each node's degree, counted from ``topology.edge_array``: entry i
    belongs to node i + 1."""
    return np.bincount(topology.edge_array.ravel() - 1, minlength=topology.n)


def neighbor_lists(topology):
    """Each node's 1-based neighbors, read from ``topology.edges``: entry i
    belongs to node i + 1."""
    lists = [[] for _ in range(topology.n)]
    for i, j in topology.edges:
        lists[i - 1].append(j)
        lists[j - 1].append(i)
    return lists


def random_connected_topology(
    n: int, rng: np.random.Generator, extra_edge_prob: float = 0.3
) -> GridTopology:
    """Random connected graph: a uniform spanning tree plus extra edges.

    The tree comes from a random Pruefer sequence (uniform over labeled
    trees); every remaining pair is then added independently with
    probability ``extra_edge_prob``. Useful for randomized testing and
    seed sweeps.
    """
    if n < 1:
        raise TopologyError(f"node count must be >= 1, got {n}")
    edges: set[tuple[int, int]] = set()
    if n == 2:
        edges.add((1, 2))
    elif n > 2:
        prufer = rng.integers(1, n + 1, size=n - 2)
        degree = np.ones(n + 1, dtype=int)
        for v in prufer:
            degree[v] += 1
        leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
        for v in prufer:
            leaf = leaves.pop(0)
            edges.add((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                # v becomes a leaf; keep the pool sorted for determinism
                leaves.append(v)
                leaves.sort()
        u, v = leaves
        edges.add((min(u, v), max(u, v)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return build_topology(n, sorted(edges))


def random_capacities(rng: np.random.Generator, n: int) -> NodeCapacities:
    """Consistent random capacities; generation ranges kept <= 100 so
    consensus dust stays well under the 1e-8 comparison slack."""
    gen_lo = rng.uniform(0.0, 50.0, n)
    gen_hi = gen_lo + rng.uniform(0.5, 100.0, n)
    net_lo = gen_lo - rng.uniform(0.0, 30.0, n)
    net_hi = gen_hi + rng.uniform(0.0, 30.0, n)
    return NodeCapacities(gen_lo=gen_lo, gen_hi=gen_hi, net_lo=net_lo, net_hi=net_hi)


def fixed_capacities(state: GridState) -> NodeCapacities:
    """Capacities that pin every generator at its output in ``state`` and
    let net power range between that output and the target. With no
    generation range to certify, flow control's balance guard is rounding
    alone, its strictest form."""
    return NodeCapacities(
        gen_lo=state.p_G, gen_hi=state.p_G,
        net_lo=np.minimum(state.p_G, state.p_d), net_hi=np.maximum(state.p_G, state.p_d),
    )


def tree_topology(kind: str, n: int, rng: np.random.Generator):
    """A path (``kind`` "path") or a random tree ("tree") on n nodes.
    Consensus mixes slowly on these, so from a handful of nodes on most
    ratio consensus calls run past the switch round into the Chebyshev
    phase, which small well-mixed random graphs mostly stop before."""
    if kind == "path":
        return path_topology(n)
    return random_connected_topology(n, rng, extra_edge_prob=0.0)


def feeder(trunk: int, seed: int = 0):
    """A trunk path 1..trunk where every trunk node carries two lateral
    nodes, as one two-node lateral or as two one-node laterals."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(1, trunk)]
    nxt = trunk + 1
    for t in range(1, trunk + 1):
        second = nxt if rng.random() < 0.5 else t
        edges += [(t, nxt), (second, nxt + 1)]
        nxt += 2
    return build_topology(nxt - 1, edges)


def symmetrised_spectrum(weights) -> np.ndarray:
    """Eigenvalues of diag(pi)^-1/2 W diag(pi)^1/2, ascending, from the
    dense matrix (pi = ``weights.stationary``, ones when None)."""
    n = weights.shape[0]
    root = np.ones(n) if weights.stationary is None else np.sqrt(weights.stationary)
    sym = weights.toarray() / root[:, None] * root[None, :]
    assert np.max(np.abs(sym - sym.T)) <= 1e-15
    return np.linalg.eigvalsh(sym)


def predicted_rounds(interval, eps: float) -> int:
    """ceil(ln(2/eps)/acosh(mu)), mu that of ``interval``: the Chebyshev
    rounds in which the bound 1/cosh(k acosh mu) <= 2 exp(-k acosh mu)
    takes a unit spread down to ``eps``. A yardstick for round counts; the
    rounds themselves compute no such number."""
    # ln(2/eps) as a difference: 2/eps overflows for a subnormal eps
    return math.ceil((math.log(2.0) - math.log(eps)) / math.acosh(_chebyshev_mu(interval)))


def random_generation_instance(
    rng: np.random.Generator, max_nodes: int = 12, kind: str | None = None
):
    """Random (topology, caps, state, bounds, desired) with a feasible step.

    The topology is a random connected graph, or with ``kind`` "path" or
    "tree" that kind of ``tree_topology``. The per-node desired values are
    a random positive split of a realizable total, so they may individually
    violate generation bounds — only the aggregate is guaranteed feasible.
    """
    n = int(rng.integers(1, max_nodes + 1))
    topology = random_connected_topology(n, rng) if kind is None else tree_topology(kind, n, rng)
    caps = random_capacities(rng, n)
    p_G = rng.uniform(caps.gen_lo, caps.gen_hi)
    state = GridState.initial(p_G).with_desired(p_G)
    bounds = compute_delta_bounds(state, caps)
    p_D = rng.uniform(caps.total_gen_lo, caps.total_gen_hi)
    weights = rng.random(n) + 1e-3
    desired = p_D * weights / weights.sum()
    return topology, caps, state, bounds, desired


def reference_topology(n: int, edges) -> GridTopology:
    """``build_topology`` as a loop over the edges, one at a time, with a
    breadth-first search for connectivity: the reference that the array
    checks must match, in the topology built and in each error's class
    and message."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise TopologyError(f"node count must be an integer >= 1, got {n!r}")
    seen = set()
    for edge in edges:
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise TopologyError(f"edge {edge!r} is not a pair of endpoints") from None
        for endpoint in (i, j):
            if endpoint is True or not isinstance(endpoint, (int, np.integer)) \
                    or not 1 <= endpoint <= n:
                integer = isinstance(endpoint, (int, np.integer)) and type(endpoint) is not bool
                problem = f"outside 1..{n}" if integer else "is not an integer"
                raise EndpointOutOfRangeError(f"edge {edge!r}: endpoint {endpoint!r} {problem}")
        if i == j:
            raise SelfLoopError(f"edge {edge!r} is a self-loop")
        pair = (int(min(i, j)), int(max(i, j)))
        if pair in seen:
            raise DuplicateEdgeError(f"edge {edge!r} repeats the edge {pair}")
        seen.add(pair)
    canonical = sorted(seen)
    adjacency = [[] for _ in range(n + 1)]
    for i, j in canonical:
        adjacency[i].append(j)
        adjacency[j].append(i)
    reached = {1}
    queue = deque([1])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if len(reached) < n:
        missing = [v for v in range(1, n + 1) if v not in reached]
        nodes = np.array2string(np.array(missing), separator=", ", threshold=10)
        raise DisconnectedGraphError(f"graph is disconnected: nodes {nodes} unreachable "
                                     f"from node 1 ({len(missing)} of {n})")
    edge_array = np.array(canonical, dtype=np.int64).reshape(-1, 2)
    edge_array.flags.writeable = False
    # bypass GridTopology's own checks, so that the reference stays
    # independent of the code it is held against
    topology = object.__new__(GridTopology)
    object.__setattr__(topology, "n", n)
    object.__setattr__(topology, "edge_array", edge_array)
    return topology


def plain_ratio_consensus(dense, x0, y0, criteria):
    """``ratio_consensus`` in plain rounds alone, z <- ``dense`` @ z on the
    (n, 2) array z of x and y, ``dense`` an n x n array such as
    ``weights.toarray()``: the reference the engine's slot product and
    Chebyshev rounds are held to. It stops, as the engine does, at the
    first round whose ratios x_i/y_i are all defined (every y_i above
    ``DENOMINATOR_FLOOR``) and spread at most eps; at the round cap it
    raises ConvergenceError with that round's ratios, nan where y_i is at
    or below the floor."""
    z = np.stack((np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)), axis=1)
    for t in range(1, criteria.max_iters + 1):
        z = dense @ z
        x, y = z[:, 0], z[:, 1]
        defined = y > DENOMINATOR_FLOOR
        ratios = np.divide(x, y, out=np.full(x.shape, np.nan), where=defined)
        if defined.all() and np.ptp(ratios) <= criteria.eps:
            return ConsensusResult(values=ratios, iters=t)
    raise ConvergenceError(f"plain rounds did not converge within {t} rounds",
                           values=ratios, iters=t)


def plain_flow_accumulate(topology, g0, criteria):
    """``flow_accumulate`` in plain rounds alone: each adds a_e (g_j - g_i)
    to h_e for every edge e = (i, j) of ``topology``, a the Metropolis edge
    weights, and reads g = g0 plus the net inflow of the flows -h. It stops,
    as the engine does, at the first round whose g spreads at most eps; at
    the round cap it raises ConvergenceError with that round's g."""
    g0 = np.asarray(g0, dtype=float)
    heads, tails = topology.edge_index_arrays()
    a = metropolis_edge_weights(topology)
    h = np.zeros(heads.shape[0])
    g = g0 + topology.incident_sums(-h, h)
    for t in range(1, criteria.max_iters + 1):
        h = h + a * (g[tails] - g[heads])
        g = g0 + topology.incident_sums(-h, h)
        if np.ptp(g) <= criteria.eps:
            return FlowAccumulator(h=h, g=g, iters=t)
    raise ConvergenceError(f"plain rounds did not converge within {t} rounds",
                           values=g, iters=t)
