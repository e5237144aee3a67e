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

Both are stored as ``SparseWeights``: compressed rows holding only the
diagonal and one entry per neighbor, so a round reads each node's
neighbors and costs O(n + m) time and memory, never O(n^2). ``W @ x`` runs
one round as a gather, a multiply and ``np.add.reduceat`` over the row
starts; ``toarray()`` gives the dense view. Every row stores its diagonal
because ``reduceat`` cannot express an empty row: for an empty segment it
returns the next row's first product instead of zero.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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
        return self._edge_arrays

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # Built once per topology and shared by every caller, so read-only.
        arr = np.asarray(self.edges, dtype=int).reshape(-1, 2) - 1
        arr.flags.writeable = False
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


class SparseWeights:
    """Square consensus weights in compressed-row (CSR) storage.

    Row ``i`` keeps its nonzero entries ``data[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[indptr[i]:indptr[i + 1]]``, in increasing column
    order. Every row stores its diagonal entry, so no row is empty, which
    the round in ``__matmul__`` relies on; the constructor rejects empty
    rows.
    """

    __slots__ = ("indptr", "indices", "data", "_starts")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        if indices.shape != data.shape or indptr[-1] != data.shape[0]:
            raise ValueError("indptr, indices and data do not describe the same entries")
        if np.any(np.diff(indptr) < 1):
            raise ValueError("every row must store at least its diagonal entry")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._starts = indptr[:-1]

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.shape[0] - 1
        return (n, n)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """One synchronous round: entry i is the sum over row i's stored
        columns j of w_ij * x_j, added in column order. ``x`` must be a
        float array of length n; callers check that once, not per round."""
        return np.add.reduceat(self.data * x[self.indices], self._starts)

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix these weights store."""
        n = self.shape[0]
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


def _edge_weights(n: int, heads, tails, upper, lower, diagonal) -> SparseWeights:
    """CSR weights from per-edge values: for edge e with 0-based endpoints
    heads[e] < tails[e], entry (heads[e], tails[e]) is ``upper[e]`` and
    entry (tails[e], heads[e]) is ``lower[e]``; entry (i, i) is
    ``diagonal[i]``. Edges must come in sorted order, as in
    ``GridTopology.edge_index_arrays``."""
    nodes = np.arange(n)
    # A stable sort on the row keeps each row's lower neighbors, then its
    # diagonal, then its higher neighbors, each group in increasing column
    # order, because the edges are sorted.
    rows = np.concatenate((tails, nodes, heads))
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = np.concatenate((heads, nodes, tails))[order]
    data = np.concatenate((lower, diagonal, upper))[order]
    return SparseWeights(indptr, indices, data)


def degree_weight_matrix(topology: GridTopology) -> SparseWeights:
    """Column-stochastic consensus weights from neighbor degrees.

    Entry (i, j) is 1/(1 + deg(j)) when j is i or one of i's neighbors,
    else 0. Each column sums to 1, so x -> W @ x preserves sum(x); the
    iteration converges to a steady state proportional to the matrix's
    positive right eigenvector.
    """
    share = 1.0 / (1.0 + np.asarray(topology.degrees, dtype=float))
    heads, tails = topology.edge_index_arrays()
    return _edge_weights(topology.n, heads, tails, share[tails], share[heads], share)


def metropolis_weight_matrix(topology: GridTopology) -> SparseWeights:
    """Symmetric doubly stochastic Metropolis-Hastings averaging weights.

    Off-diagonal (i, j) is 1/(1 + max(deg(i), deg(j))) for neighbors,
    the diagonal absorbs the remainder so every row (and by symmetry every
    column) sums to 1. Iterating drives all entries to the mean.
    """
    a = metropolis_edge_weights(topology)
    heads, tails = topology.edge_index_arrays()
    # each row's off-diagonal sum, added in increasing column order
    off = np.bincount(
        np.concatenate((tails, heads)), weights=np.concatenate((a, a)), minlength=topology.n
    )
    return _edge_weights(topology.n, heads, tails, a, a, 1.0 - off)


def metropolis_edge_weights(topology: GridTopology) -> np.ndarray:
    """Per-edge Metropolis-Hastings weights, aligned with topology.edges."""
    deg = np.asarray(topology.degrees)
    heads, tails = topology.edge_index_arrays()
    return 1.0 / (1.0 + np.maximum(deg[heads], deg[tails]))


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
