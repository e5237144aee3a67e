"""Grid topology and consensus weight matrices.

Nodes are numbered 1..n in the public API (edge lists, neighbor sets,
leader indices); matrices and other arrays are 0-indexed with row/column
``i`` belonging to node ``i+1``.

Two weight matrices drive every iteration in this package:

* ``degree_weight_matrix`` — column-stochastic weights built from neighbor
  degrees. One multiplication performs a synchronous round in which each
  node splits its value evenly over itself and its neighbors, so the total
  over all nodes is preserved round to round.
* ``metropolis_weight_matrix`` — symmetric Metropolis-Hastings weights,
  doubly stochastic, whose iteration converges to the entrywise average.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    SelfLoopError,
    TopologyError,
)


@dataclass(frozen=True)
class GridTopology:
    """Undirected connected graph of power nodes.

    ``edges`` holds each unordered pair once as a sorted (i, j) tuple with
    1-based endpoints. ``neighbors[i]`` lists the 1-based neighbors of node
    ``i+1``; ``degrees[i]`` is its degree.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays (heads, tails), one entry per edge."""
        if not self.edges:
            empty = np.zeros(0, dtype=int)
            return empty, empty
        arr = np.asarray(self.edges, dtype=int) - 1
        return arr[:, 0], arr[:, 1]


def build_topology(n: int, edges) -> GridTopology:
    """Validate a node count and edge list into a GridTopology.

    Raises a distinct TopologyError subclass for each failure mode:
    out-of-range endpoints, self-loops, duplicate edges, and
    disconnectedness (checked by breadth-first traversal from node 1).
    """
    if not isinstance(n, int) or n < 1:
        raise TopologyError(f"node count must be an integer >= 1, got {n!r}")

    seen: set[tuple[int, int]] = set()
    canonical: list[tuple[int, int]] = []
    for edge in edges:
        i, j = edge
        for endpoint in (i, j):
            if not isinstance(endpoint, (int, np.integer)) or not 1 <= endpoint <= n:
                raise EndpointOutOfRangeError(
                    f"edge ({i}, {j}): endpoint {endpoint} outside 1..{n}"
                )
        if i == j:
            raise SelfLoopError(f"edge ({i}, {j}) is a self-loop")
        pair = (int(min(i, j)), int(max(i, j)))
        if pair in seen:
            raise DuplicateEdgeError(f"edge {pair} appears more than once")
        seen.add(pair)
        canonical.append(pair)
    canonical.sort()

    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in canonical:
        adjacency[i].append(j)
        adjacency[j].append(i)

    # connectivity: BFS from node 1
    visited = [False] * (n + 1)
    visited[1] = True
    queue = deque([1])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not visited[v]:
                visited[v] = True
                reached += 1
                queue.append(v)
    if reached != n:
        missing = [v for v in range(1, n + 1) if not visited[v]]
        raise DisconnectedGraphError(
            f"graph is disconnected: nodes {missing} unreachable from node 1"
        )

    neighbors = tuple(tuple(sorted(adjacency[i])) for i in range(1, n + 1))
    degrees = tuple(len(nbrs) for nbrs in neighbors)
    return GridTopology(n=n, edges=tuple(canonical), neighbors=neighbors, degrees=degrees)


def degree_weight_matrix(topology: GridTopology) -> np.ndarray:
    """Column-stochastic consensus weights from neighbor degrees.

    Entry (i, j) is 1/(1 + deg(j)) when j is i or one of i's neighbors,
    else 0. Each column sums to 1, so x -> W @ x preserves sum(x); the
    iteration converges to a steady state proportional to the matrix's
    positive right eigenvector.
    """
    n = topology.n
    w = np.zeros((n, n))
    share = 1.0 / (1.0 + np.asarray(topology.degrees, dtype=float))
    for j in range(n):
        w[j, j] = share[j]
        for nbr in topology.neighbors[j]:
            w[nbr - 1, j] = share[j]
    return w


def metropolis_weight_matrix(topology: GridTopology) -> np.ndarray:
    """Symmetric doubly stochastic Metropolis-Hastings averaging weights.

    Off-diagonal (i, j) is 1/(1 + max(deg(i), deg(j))) for neighbors,
    the diagonal absorbs the remainder so every row (and by symmetry every
    column) sums to 1. Iterating drives all entries to the mean.
    """
    n = topology.n
    w = np.zeros((n, n))
    deg = topology.degrees
    for i, j in topology.edges:
        a = 1.0 / (1.0 + max(deg[i - 1], deg[j - 1]))
        w[i - 1, j - 1] = a
        w[j - 1, i - 1] = a
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_edge_weights(topology: GridTopology) -> np.ndarray:
    """Per-edge Metropolis-Hastings weights, aligned with topology.edges."""
    deg = topology.degrees
    return np.array(
        [1.0 / (1.0 + max(deg[i - 1], deg[j - 1])) for i, j in topology.edges]
    )


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
