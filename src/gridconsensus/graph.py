"""Grid topology and consensus weight matrices.

Nodes are numbered 1..n in the public API (edge lists, leader indices);
matrices and other arrays are 0-indexed with row/column ``i`` belonging
to node ``i+1``.

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

Each topology builds each matrix once and hands the same read-only
instance to every caller. What the accelerated rounds in ``consensus``
need to know about the graph is an interval holding every eigenvalue
other than the consensus eigenvalue 1. Each matrix measures its own,
``interval``, by Lanczos on the first read, and keeps it. Lanczos can
misjudge it, so ``fallback()`` gives the same weights on a wider one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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
    1-based endpoints, in increasing order; ``degrees[i]`` is the degree of
    node ``i+1``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays (heads, tails), one entry per edge."""
        return self._edge_arrays[:2]

    def incident_sums(self, at_tails: np.ndarray, at_heads: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``at_tails[e]`` over the edges e it ends
        (as ``tails[e]``), then of ``at_heads[e]`` over those it starts, each
        group in edge order. ``incident_sums(flows, -flows)`` is the net
        inflow that ``dispatch.apply_step`` books and flow rounds read."""
        return np.bincount(self._edge_arrays[2], np.concatenate((at_tails, at_heads)), self.n)

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # heads, tails and both (tails first) in one array, built once per
        # topology and shared by every caller, so read-only
        ends = np.fromiter(chain.from_iterable(self.edges), int, 2 * len(self.edges)) - 1
        ends = np.concatenate((ends[1::2], ends[0::2]))
        ends.flags.writeable = False
        return ends[len(self.edges):], ends[:len(self.edges)], ends

    @cached_property
    def _degree_weights(self) -> SparseWeights:
        stationary = 1.0 + np.asarray(self.degrees, dtype=float)
        stationary.flags.writeable = False
        share = 1.0 / stationary
        heads, tails = self.edge_index_arrays()
        return _edge_weights(self, share[tails], share[heads], share, stationary)

    @cached_property
    def _metropolis_weights(self) -> SparseWeights:
        a = metropolis_edge_weights(self)
        # each row's off-diagonal sum, added in increasing column order
        return _edge_weights(self, a, a, 1.0 - self.incident_sums(a, a))


def _bfs_depths(indptr, indices, source: int) -> list[int]:
    """Hop distance from node ``source`` to each node, indexed by node
    number (entry 0 unused), -1 where unreachable. The graph is in
    compressed rows: node u's 1-based neighbors are
    ``indices[indptr[u - 1]:indptr[u]]``."""
    depth = [-1] * len(indptr)
    depth[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = depth[u] + 1
        for v in indices[indptr[u - 1]:indptr[u]]:
            if depth[v] < 0:
                depth[v] = d
                queue.append(v)
    return depth


def _is_integer_type(kind: type) -> bool:
    # True == 1 would pass the range check, and False == 0 fails it
    return kind is not bool and issubclass(kind, (int, np.integer))


def _edge_keys(n: int, edges: list) -> np.ndarray | None:
    """The sorted keys min·(n + 1) + max of the edges, one per edge, when
    every edge has length 2 and holds two integers in 1..n, with no
    self-loop and no edge given twice; None otherwise.

    The checks run on whole lists: one pass over the lengths and one over
    the endpoint types, then array comparisons, so no edge is looked at on
    its own.
    """
    m = len(edges)
    try:
        lengths = set(map(len, edges))
    except TypeError:  # an edge with no length
        return None
    if m and not (lengths == {2}
                  and all(map(_is_integer_type, set(map(type, chain.from_iterable(edges)))))):
        return None
    try:
        ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * m)
    except OverflowError:  # an endpoint past int64, so outside 1..n
        return None
    lo = np.minimum(ends[0::2], ends[1::2])
    hi = np.maximum(ends[0::2], ends[1::2])
    if m and (lo.min() < 1 or hi.max() > n or (lo == hi).any()):
        return None
    keys = np.sort(lo * (n + 1) + hi)
    return None if (keys[1:] == keys[:-1]).any() else keys


def _raise_edge_fault(n: int, edges) -> None:
    """Raise the TopologyError subclass for the first edge, in order, that
    ``_edge_keys`` refuses: not a pair (an edge of length 2) of integers
    in 1..n, a self-loop, or a repeat of an earlier edge. The message
    quotes the edge as given."""
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            paired = len(edge) == 2
        except TypeError:
            paired = False
        if not paired:
            raise TopologyError(f"edge {edge!r} is not a pair of endpoints")
        i, j = edge
        for endpoint in (i, j):
            integer = _is_integer_type(type(endpoint))
            if not integer or not 1 <= endpoint <= n:
                problem = f"outside 1..{n}" if integer else "is not an integer"
                raise EndpointOutOfRangeError(f"edge {edge!r}: endpoint {endpoint!r} {problem}")
        if i == j:
            raise SelfLoopError(f"edge {edge!r} is a self-loop")
        pair = (int(min(i, j)), int(max(i, j)))
        if pair in seen:
            raise DuplicateEdgeError(f"edge {edge!r} repeats the edge {pair}")
        seen.add(pair)


def build_topology(n: int, edges) -> GridTopology:
    """Validate a node count and edge list into a GridTopology.

    Raises TopologyError for a node count or an edge that is not one, and
    a distinct subclass for each other failure mode: endpoints not integers
    or outside 1..n (a bool is no integer here), self-loops, duplicate
    edges, and disconnectedness (checked by breadth-first traversal from
    node 1). An edge is any item of length 2, such as a list, a tuple or a
    numpy row. The edges are checked as arrays; only a faulty list is
    walked edge by edge, so that each message quotes the first bad edge as
    given.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise TopologyError(f"node count must be an integer >= 1, got {n!r}")
    edges = list(edges)
    keys = _edge_keys(n, edges)
    if keys is None:
        _raise_edge_fault(n, edges)
    lo = keys // (n + 1)
    hi = keys - lo * (n + 1)
    degrees = np.bincount(np.concatenate((lo, hi)), minlength=n + 1)[1:]

    # The neighbors in compressed rows: each edge keyed from both ends,
    # then sorted (np.argsort would fault in more of numpy's sort code).
    # Memoryviews hand the traversal one int at a time, where tolist()
    # would hold an object per entry; both show in peak memory.
    indices = memoryview(np.sort(np.concatenate((keys, hi * (n + 1) + lo))) % (n + 1))
    indptr = memoryview(np.concatenate(([0], np.cumsum(degrees))))
    depth = _bfs_depths(indptr, indices, 1)
    if depth.count(-1) > 1:
        missing = [v for v in range(1, n + 1) if depth[v] < 0]
        raise DisconnectedGraphError(
            f"graph is disconnected: nodes {missing} unreachable from node 1"
        )
    return GridTopology(n=n, edges=tuple(zip(lo.tolist(), hi.tolist())),
                        degrees=tuple(degrees.tolist()))


class SparseWeights:
    """Square consensus weights in compressed-row (CSR) storage.

    Row ``i`` keeps its nonzero entries ``data[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[indptr[i]:indptr[i + 1]]``, in increasing column
    order. Every row stores its diagonal entry, so no row is empty, which
    the round in ``__matmul__`` relies on; the constructor rejects empty
    rows.

    The weights are reversible: W pi = pi for the positive vector
    ``stationary`` (None for symmetric weights, where pi is all ones), and
    diag(pi)^(-1/2) W diag(pi)^(1/2) is symmetric, so the spectrum is real.
    ``interval`` is an interval [lo, hi] holding every eigenvalue other
    than the consensus eigenvalue 1, measured from the weights by Lanczos
    on the first read unless pinned at construction; ``consensus`` runs
    its Chebyshev rounds on it, and on ``fallback()``, a wider one, if it
    proves wrong. Both are read-only, like the arrays of the shared
    instances, because they set the rounds of every later caller.
    """

    __slots__ = ("indptr", "indices", "data", "_stationary", "_interval", "_starts", "_shifted")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 stationary: np.ndarray | None = None,
                 interval: tuple[float, float] | None = None):
        if indices.shape != data.shape or indptr[-1] != data.shape[0]:
            raise ValueError("indptr, indices and data do not describe the same entries")
        if np.any(np.diff(indptr) < 1):
            raise ValueError("every row must store at least its diagonal entry")
        # mu > 1 keeps acosh(mu), the rate of the rounds' watches, defined
        # and positive: only then does the bound 1/cosh(k acosh mu) shrink
        if interval is not None and not (-1.0 <= interval[0] <= interval[1] < 1.0
                                         and _chebyshev_mu(interval) > 1.0):
            raise ValueError(f"interval must satisfy -1 <= lo <= hi < 1 and mu > 1, got {interval}")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._stationary = stationary
        self._interval = interval
        self._starts = indptr[:-1]
        self._shifted = None

    @property
    def stationary(self) -> np.ndarray | None:
        return self._stationary

    @property
    def interval(self) -> tuple[float, float]:
        """[lo, hi] holding every eigenvalue but the consensus eigenvalue 1.

        Measured on the first read (``_lanczos_interval``) and kept, so the
        cost falls on the first consensus call on the shared weights, not
        on building them."""
        if self._interval is None:
            self._interval = _lanczos_interval(self)[0]
        return self._interval

    @property
    def shift(self) -> float:
        """The shift c = (lo + hi)/2 of ``shifted()``, the middle of
        ``interval``."""
        lo, hi = self.interval
        return (lo + hi) / 2.0

    def fallback(self) -> SparseWeights:
        """The same weights on [-1, 1 - (1 - hi)/4], hi the top of
        ``interval``: the whole lower range, and the distance from hi to 1
        cut to a quarter. That distance stops shrinking at 4u, u the unit
        roundoff, so hi stays below 1, and mu above 1, however often a
        call widens; only a pinned hi of nextafter(1, 0) has none."""
        hi = self.interval[1]
        gap = (1.0 - hi) / 4.0
        if gap >= 4.0 * _UNIT_ROUNDOFF:
            hi = 1.0 - gap
        return SparseWeights(self.indptr, self.indices, self.data, self._stationary, (-1.0, hi))

    def shifted(self) -> SparseWeights:
        """P = (W - cI)/(1 - c) with c = ``shift``, in the same storage.

        P moves ``interval`` onto [-1/mu, 1/mu], mu = (1 - c)/((hi - lo)/2),
        keeps the eigenvalue 1 and every column sum, and reaches the same
        neighbors, so a round of P costs what a round of W does. Built on
        the first call and kept, read-only, for every later caller.
        """
        if self._shifted is None:
            lo, hi = self.interval
            c = self.shift
            n = self.shape[0]
            diagonal = self.indices == np.repeat(np.arange(n), np.diff(self.indptr))
            data = np.where(diagonal, self.data - c, self.data) / (1.0 - c)
            data.flags.writeable = False
            self._shifted = SparseWeights(self.indptr, self.indices, data, self._stationary,
                                          ((lo - c) / (1.0 - c), (hi - c) / (1.0 - c)))
        return self._shifted

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
        products = x[self.indices]
        products *= self.data
        return np.add.reduceat(products, self._starts)

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix these weights store."""
        n = self.shape[0]
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


# Lanczos checks its top Ritz pair every _RITZ_CHECK steps. It stops once
# _SETTLED_CHECKS checks in a row find the pair's residual r at most
# _RESIDUAL_SHARE of the Ritz value's distance from 1, the value moving by
# at most r from one to the next. The start vector comes from a generator
# seeded with _START_SEED, so every run measures the same interval.
_RITZ_CHECK = 5
_RESIDUAL_SHARE = 0.1
_SETTLED_CHECKS = 3
_START_SEED = 0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# A Lanczos vector shorter than this after the recurrence and the deflation
# is rounding noise: the Krylov space is invariant, and its Ritz values are
# exact.
_BREAKDOWN = math.sqrt(_UNIT_ROUNDOFF)
# Half-widths below this are rounding noise around a one-point spectrum;
# flooring them keeps mu finite.
_HALF_WIDTH_FLOOR = math.sqrt(_UNIT_ROUNDOFF)
# Laguerre's iteration converges cubically; this many steps is a backstop.
_LAGUERRE_STEPS = 50


def _chebyshev_mu(interval: tuple[float, float]) -> float:
    """mu = (1 - c)/((hi - lo)/2) of ``interval``, c its middle, with the
    half-width floored; the Chebyshev rounds in ``consensus`` need mu > 1."""
    lo, hi = interval
    return (1.0 - (lo + hi) / 2.0) / max((hi - lo) / 2.0, _HALF_WIDTH_FLOOR)


def _lanczos_interval(weights: SparseWeights) -> tuple[tuple[float, float], int]:
    """An interval holding every eigenvalue of ``weights`` but 1, and the
    Lanczos steps (Lanczos, 1950; Golub & Kent, 1989) that measured it.

    Lanczos runs on the symmetric S = diag(pi)^(-1/2) W diag(pi)^(1/2),
    pi = ``weights.stationary``, which has W's eigenvalues, with the
    consensus eigenvector sqrt(pi) projected out. It keeps no basis, only
    the three vectors of the recurrence w = S v - alpha v - beta v_prev,
    with sqrt(pi) projected out of w twice a step, so a step costs a round
    and O(n) work. The vectors lose orthogonality as Ritz values converge;
    that only repeats eigenvalues already found (Paige, 1976; Cullum &
    Willoughby, 1985), so the extreme ones come out the same, if some steps
    later. A Ritz value theta of the k-step tridiagonal T has an
    eigenvalue of S within r = b |y_k|, to rounding, orthogonal vectors or
    not (Paige, 1976); b is the next off-diagonal and y_k the last
    component of theta's unit eigenvector of T, which ``_ritz_pair`` reads
    from the pivots of its Laguerre iteration, without forming the vector.
    So the extreme Ritz values give
    [max(theta_min - r_min, -1), theta_max + r]. Lanczos stops once r is at
    most a tenth of 1 - theta_max, so theta_max + r stays below 1; where it
    stops because the Krylov space is invariant, its Ritz values are
    eigenvalues and r is rounding, held to the same tenth.
    n = 1 leaves no eigenvalue to bracket, and the interval is the point 0.
    """
    n = weights.shape[0]
    pi = weights.stationary
    root = np.ones(n) if pi is None else np.sqrt(pi)
    unit = root / math.sqrt(root @ root)

    def deflate(v):
        # projected twice: orthogonal to sqrt(pi) to working accuracy
        for _ in range(2):
            v -= (unit @ v) * unit
        return v

    w = deflate(np.random.default_rng(_START_SEED).standard_normal(n))
    b = math.sqrt(w @ w)
    v = np.zeros(n)
    alpha, beta = [], []
    top, settled = None, 0
    while b > _BREAKDOWN:
        if alpha:
            beta.append(b)
        v_prev, v = v, w / b
        w = weights @ (root * v) / root
        alpha.append(float(v @ w))
        w = deflate(w - alpha[-1] * v - b * v_prev)
        b = math.sqrt(w @ w)
        if len(alpha) % _RITZ_CHECK == 0 or b <= _BREAKDOWN:
            last, (top, r) = top, _ritz_pair(alpha, beta, b, 1.0)
            settled = settled + 1 if r <= _RESIDUAL_SHARE * (1.0 - top) and (
                last is None or top - last <= r) else 0
            if settled == _SETTLED_CHECKS:
                break
    if not alpha:
        return (0.0, 0.0), 0
    bottom, r_bottom = _ritz_pair(alpha, beta, b, -1.0)
    hi = top + min(r, _RESIDUAL_SHARE * (1.0 - top))
    return (min(max(bottom - r_bottom, -1.0), hi), hi), len(alpha)


def _ritz_pair(alpha: list, beta: list, b: float, side: float) -> tuple[float, float]:
    """The largest (``side`` 1) or smallest (``side`` -1) Ritz value theta
    of the k-by-k tridiagonal T with diagonal ``alpha`` and off-diagonal
    ``beta``, and the residual norm r = b |y_k| of its unit Ritz vector y,
    b being Lanczos's next off-diagonal ``b`` (Paige, 1976). Pure Python:
    no LAPACK on the run path.

    From x = ``side``, beyond every Ritz value (they lie in [-1, 1]),
    Laguerre's iteration on det(T - xI) moves monotonically, and cubically
    near the end, to the nearest root, never past it. It needs
    G = sum 1/(x - theta_i) and H = sum 1/(x - theta_i)^2, which come from
    the pivots d_j = alpha_j - x - q_j, q_j = beta_{j-1}^2/d_{j-1}, of
    T - xI = L D L^T: G sums e_j = d_j'/d_j, their log-derivatives in x.
    The last pass's pivots also give y_k (Parlett, 1980): det(T - xI) is
    det(T_{k-1} - xI) d_k, so

        y_k^2 = det(T_{k-1} - xI) / (d/dx) det(T - xI)
              = 1 / |d_k' + d_k G_{k-1}|,    d_k' = q_k e_{k-1} - 1,

    with G_{k-1} the sum over the first k - 1 pivots; unlike 1/|d_k G|, it
    stays finite as d_k goes to 0 at the root. y_k^2 comes out to a few
    rounding errors, so r is resolved to about b sqrt(u). Ritz values
    closer than rounding act as a double root, which Laguerre approaches
    only linearly; there ``_LAGUERRE_STEPS`` may stop x short of it, on
    the outside.
    """
    k = len(alpha)
    x = side
    for _ in range(_LAGUERRE_STEPS):
        g = h = 0.0
        d, e, f = 1.0, 0.0, 0.0  # previous pivot, and d'/d and d''/d of it
        for j in range(k):
            q = beta[j - 1] ** 2 / d if j else 0.0
            # a zero pivot means x is a root of a leading block; nudging it
            # costs a rounding error where dividing would cost the result
            d = alpha[j] - x - q or _UNIT_ROUNDOFF
            last = 1.0 - q * e - d * g  # -(d_k' + d_k G_{k-1}) for j = k - 1
            e, f = (q * e - 1.0) / d, q * (f - 2.0 * e * e) / d
            g += e
            h += e * e - f
        spread = math.sqrt(max((k - 1) * (k * h - g * g), 0.0))
        step = k / (g + math.copysign(spread, g))
        if not abs(step) > _UNIT_ROUNDOFF:  # converged, or no finite step left
            break
        x -= step
    return x, b / math.sqrt(abs(last))


def _edge_weights(topology: GridTopology, upper, lower, diagonal,
                  stationary=None) -> SparseWeights:
    """CSR weights of ``topology`` from per-edge values: for edge e with
    0-based endpoints heads[e] < tails[e] (``edge_index_arrays``), entry
    (heads[e], tails[e]) is ``upper[e]`` and entry (tails[e], heads[e]) is
    ``lower[e]``; entry (i, i) is ``diagonal[i]``; ``stationary`` is as in
    ``SparseWeights``. The arrays are read-only because the topology shares
    them with every caller."""
    n = topology.n
    heads, tails = topology.edge_index_arrays()
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
    for arr in (indptr, indices, data):
        arr.flags.writeable = False
    return SparseWeights(indptr, indices, data, stationary)


def degree_weight_matrix(topology: GridTopology) -> SparseWeights:
    """Column-stochastic consensus weights from neighbor degrees.

    Entry (i, j) is 1/(1 + deg(j)) when j is i or one of i's neighbors,
    else 0. Each column sums to 1, so x -> W @ x preserves sum(x); the
    iteration converges to a steady state proportional to the matrix's
    positive right eigenvector. Built once per topology; every call returns
    the same read-only instance.
    """
    return topology._degree_weights


def metropolis_weight_matrix(topology: GridTopology) -> SparseWeights:
    """Symmetric doubly stochastic Metropolis-Hastings averaging weights.

    Off-diagonal (i, j) is 1/(1 + max(deg(i), deg(j))) for neighbors,
    the diagonal absorbs the remainder so every row (and by symmetry every
    column) sums to 1. Iterating drives all entries to the mean. Built once
    per topology; every call returns the same read-only instance.
    """
    return topology._metropolis_weights


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
