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

Both are stored as ``SparseWeights`` on the graph's edges, in the incidence
form W = I - B diag(a) B^T of Xiao & Boyd (2004), an edge's two entries
allowed to differ: each edge keeps its two off-diagonal entries and each
node its diagonal, so a round costs O(n + m) time and memory, never
O(n^2). Weights are built only on their topology's one storage
(``_Storage``) of these entries, so they all share it. ``W @ x`` runs one
round slot-major, in the ELL layout of Bell & Garland (2009): slot j of
row r holds row r's j-th entry in storage order, so a round is a gather,
a multiply and one vectorised sum over the slots, each row's products
added in storage order from +0.0, as ``np.bincount`` adds them. The few
entries of rows longer than the slot width spill to an ``np.add.at`` in
the same order, so a round is bit-identical to a ``bincount`` over the
entries. ``toarray()`` gives the dense view.

Each topology builds each matrix once and hands the same read-only
instance to every caller. What the accelerated rounds in ``consensus``
need to know about the graph is an interval holding every eigenvalue
other than the consensus eigenvalue 1. Each matrix measures its own,
``interval``, by Lanczos on the first read, and keeps it. Lanczos can
misjudge it, so ``fallback()`` gives the same weights on a wider one;
``with_interval()`` pins any other.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


@dataclass(frozen=True, eq=False)
class GridTopology:
    """Undirected connected graph of power nodes.

    ``edge_array``, a read-only (m, 2) int64 array, holds each unordered
    pair once as a sorted row (i, j), i < j, of 1-based endpoints, the rows
    in increasing order; ``edges`` gives the same pairs as a tuple of
    (i, j) int tuples, built on the first read, which nothing on the run
    path makes (tests and the benchmark's self-test read it).
    ``max_degree``, also built on the first read, is the largest node
    degree. Topologies are equal, and hash alike, when their n and pairs
    are.
    """

    n: int
    edge_array: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, GridTopology):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, np.asarray(self.edge_array, np.int64).tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def max_degree(self) -> int:
        return int(self._storage.degrees.max())

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays (heads, tails), one entry per edge."""
        return self._storage.heads, self._storage.tails

    def incident_sums(self, at_tails: np.ndarray, at_heads: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``at_tails[e]`` over the edges e it ends
        (as ``tails[e]``), then of ``at_heads[e]`` over those it starts, each
        group in edge order. ``incident_sums(flows, -flows)`` is the net
        inflow that ``dispatch.apply_step`` books and flow rounds read."""
        return np.bincount(self._storage.ends, np.concatenate((at_tails, at_heads)), self.n)

    @cached_property
    def _storage(self) -> _Storage:
        return _Storage(self.n, self.edge_array)

    @cached_property
    def _edge_weights(self) -> np.ndarray:
        s = self._storage
        a = 1.0 / (1.0 + np.maximum(s.degrees[s.heads], s.degrees[s.tails]))
        a.flags.writeable = False
        return a

    @cached_property
    def _degree_weights(self) -> SparseWeights:
        stationary = 1.0 + self._storage.degrees
        stationary.flags.writeable = False
        # entry (i, j) is 1/(1 + deg(j)), j the entry's column
        data = (1.0 / stationary)[self._storage.cols]
        data.flags.writeable = False
        return SparseWeights(self._storage, data, stationary)

    @cached_property
    def _metropolis_weights(self) -> SparseWeights:
        a = metropolis_edge_weights(self)
        # each row's off-diagonal sum, added in increasing column order
        data = np.concatenate((a, a, 1.0 - self.incident_sums(a, a)))
        data.flags.writeable = False
        return SparseWeights(self._storage, data)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each node, the least node in its component, all 0-based; ``u``
    and ``v`` hold the edges' endpoints. Label hooking with pointer jumping
    (Shiloach & Vishkin, 1982), in whole-array passes: each round hooks,
    across every edge both ways, one end's label (a node that is its own
    label) to the other's where that is less, then jumps every label to
    its label's label until none moves. Labels only fall, within their
    component; the first round that moves none leaves every edge joining
    equal labels, so each component's least node labels all of it.
    """
    label = np.arange(n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[u], label[v])
        np.minimum.at(hooked, label[v], label[u])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, label):
            return label
        label = hooked


_INTEGERS = (int, np.integer)  # and no bool: True == 1 would pass range checks


def _is_integer(value) -> bool:
    return isinstance(value, _INTEGERS) and not isinstance(value, bool)


def _all_of(values, kind) -> bool:
    """Whether every item is a ``kind`` and none a bool: one pass over their types."""
    for t in set(map(type, values)):  # a loop: all() over a generator costs more per call
        if t is bool or not issubclass(t, kind):
            return False
    return True


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
    if m and not (lengths == {2} and _all_of(chain.from_iterable(edges), _INTEGERS)):
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
            integer = _is_integer(endpoint)
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

    Raises TopologyError for a node count, an edge iterable or an edge that
    is not one, and a distinct subclass for each other failure mode:
    endpoints not integers or outside 1..n (a bool is no integer here),
    self-loops, duplicate edges, and disconnectedness (``_components``,
    the nodes node 1 cannot reach named, in summary past ten, and counted).
    An edge is any item of length 2, such as a list, a tuple or a numpy
    row. The edges are checked as arrays; only a faulty list is walked edge
    by edge, so that each message quotes the first bad edge as given.
    """
    if not _is_integer(n) or n < 1:
        raise TopologyError(f"node count must be an integer >= 1, got {n!r}")
    if not isinstance(edges, Iterable):
        raise TopologyError(f"edges must be an iterable of pairs, got {edges!r}")
    n, edges = int(n), list(edges)
    keys = _edge_keys(n, edges)
    if keys is None:
        _raise_edge_fault(n, edges)
    lo = keys // (n + 1)
    hi = keys - lo * (n + 1)
    unreachable = np.flatnonzero(_components(n, lo - 1, hi - 1))
    if unreachable.size:
        nodes = np.array2string(unreachable + 1, separator=", ", threshold=10)
        raise DisconnectedGraphError(f"graph is disconnected: nodes {nodes} unreachable "
                                     f"from node 1 ({unreachable.size} of {n})")
    edge_array = np.stack((lo, hi), axis=1)
    edge_array.flags.writeable = False
    return GridTopology(n=n, edge_array=edge_array)


class _Storage:
    """Where a topology's weights keep their entries, and the slot layout
    their products run on; one per topology, shared by both matrices and
    every form of them, and read-only.

    Entry k sits at row ``rows[k]`` and column ``cols[k]`` of an n x n
    matrix. The edges' entries come first, in edge order: each edge (i, j),
    i < j, gives entry (j, i) among the first m and (i, j) among the next
    m. The diagonal comes last, node by node, so the final n entries are
    the diagonal and every row has an entry. ``heads`` and ``tails`` are
    the edges' 0-based endpoints, i - 1 and j - 1, read from the
    topology's ``edge_array``, and ``ends`` is tails then heads, each a
    view of the entries' own arrays. ``degrees`` is each row's length less
    its diagonal entry: the nodes' degrees.

    Column r of the (D, n) arrays ``index`` and ``where`` lists row r's
    entries in storage order: slot j holds the column and the storage
    position of its j-th entry. Slots past the end of a row hold column r
    and position nnz, where a matrix's slot data reads +0.0. The width is
    D = min(longest row, ceil(2 nnz / n)), so the pad cells never exceed
    2 nnz; the entries past slot D (hub rows only) form ``spill``, their
    storage positions in storage order.
    """

    __slots__ = ("n", "rows", "cols", "heads", "tails", "ends", "degrees", "index", "where",
                 "spill")

    def __init__(self, n: int, edge_array: np.ndarray):
        m = len(edge_array)
        ends = edge_array.ravel() - 1
        nodes = np.arange(n)
        rows = np.concatenate((ends[1::2], ends[0::2], nodes))
        cols = np.concatenate((ends[0::2], ends[1::2], nodes))
        nnz = rows.size
        lengths = np.bincount(rows, minlength=n)
        width = min(int(lengths.max()), -(-2 * nnz // n))
        # each entry's rank in its row: its place in a stable sort by row
        # less the place of the row's first entry
        starts = np.cumsum(lengths) - lengths
        rank = np.empty(nnz, np.intp)
        rank[np.argsort(rows, kind="stable")] = np.arange(nnz) - np.repeat(starts, lengths)
        slotted = rank < width
        slots = rank[slotted], rows[slotted]
        index = np.tile(np.arange(n), (width, 1))
        index[slots] = cols[slotted]
        where = np.full((width, n), nnz)
        where[slots] = np.flatnonzero(slotted)
        spill = np.flatnonzero(~slotted)
        degrees = lengths - 1
        for array in (rows, cols, degrees, index, where, spill):
            array.flags.writeable = False
        self.n, self.rows, self.cols, self.degrees = n, rows, cols, degrees
        self.heads, self.tails, self.ends = cols[:m], rows[:m], rows[:2 * m]
        self.index, self.where, self.spill = index, where, spill


class SparseWeights:
    """Square consensus weights stored per edge, on a topology's ``storage``:
    entry k of ``data`` is the weight at row ``storage.rows[k]`` and column
    ``storage.cols[k]``, so the diagonal is the final n entries, as
    ``shifted()`` needs, by construction.

    The weights are reversible: W pi = pi for the positive vector
    ``stationary`` (None for symmetric weights, where pi is all ones), and
    diag(pi)^(-1/2) W diag(pi)^(1/2) is symmetric, so the spectrum is real.
    ``interval`` is an interval [lo, hi] holding every eigenvalue other
    than the consensus eigenvalue 1, measured from the weights by Lanczos
    on the first read unless pinned at construction or by
    ``with_interval()``; ``consensus`` runs its Chebyshev rounds on it, and
    on ``fallback()``, a wider one, if it proves wrong. Both are read-only,
    like the arrays of the shared instances, because they set the rounds
    of every later caller.

    Rounds run slot-major on the storage's slot layout, shared by every
    matrix on it, the topology's two and their shifted and fallback forms;
    each matrix keeps its own slot data, per operand shape, in that layout.
    """

    __slots__ = ("storage", "data", "_stationary", "_interval", "_shifted", "_slot_data")

    def __init__(self, storage: _Storage, data: np.ndarray,
                 stationary: np.ndarray | None = None,
                 interval: tuple[float, float] | None = None):
        if data.shape != storage.rows.shape:
            raise ValueError(f"data must hold one entry per stored entry "
                             f"({storage.rows.size}), got shape {data.shape}")
        # mu > 1 keeps acosh(mu), the rate of the rounds' watches, defined
        # and positive: only then does the bound 1/cosh(k acosh mu) shrink
        if interval is not None and not (-1.0 <= interval[0] <= interval[1] < 1.0
                                         and _chebyshev_mu(interval) > 1.0):
            raise ValueError(f"interval must satisfy -1 <= lo <= hi < 1 and mu > 1, got {interval}")
        self.storage = storage
        self.data = data
        self._stationary = stationary
        self._interval = interval
        self._shifted = None
        self._slot_data = {}

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
        return self.with_interval((-1.0, hi))

    def with_interval(self, interval: tuple[float, float]) -> SparseWeights:
        """The same weights, on the same storage, pinned to ``interval``,
        which must pass the constructor's check."""
        return SparseWeights(self.storage, self.data, self._stationary, interval)

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
            n = self.storage.n
            data = np.concatenate((self.data[:-n], self.data[-n:] - c)) / (1.0 - c)
            data.flags.writeable = False
            self._shifted = SparseWeights(self.storage, data, self._stationary,
                                          ((lo - c) / (1.0 - c), (hi - c) / (1.0 - c)))
        return self._shifted

    @property
    def shape(self) -> tuple[int, int]:
        return (self.storage.n, self.storage.n)

    @property
    def nbytes(self) -> int:
        """The bytes this matrix adds: ``data``, 8 (2m + n), and the slot
        data its products have built, 8 D n per operand column. The
        storage is the topology's, shared by both weight matrices, their
        shifted and fallback forms, and ``incident_sums``."""
        return self.data.nbytes + sum(a.nbytes for a in self._slot_data.values())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """One synchronous round: row i of the result is the sum of
        w_ij * x_j over row i's entries, added in storage order from +0.0,
        bit for bit what ``np.bincount`` gives. ``x`` must be a float array
        of shape (n,) or (n, k), a round of each column; callers check that
        once, not per round.

        The slots past the end of a row add x_i * +0.0. A partial sum that
        starts from +0.0 is never -0.0, so that pad leaves it unchanged.
        ``initial=0.0`` starts every row at +0.0, as ``bincount`` does,
        whatever start a numpy version picks for a row of -0.0 products.
        Only a padded row whose own x_i is infinite differs: x_i * 0.0 is
        nan, so the row sums to nan where ``bincount`` gives inf."""
        storage = self.storage
        index, where, spill = storage.index, storage.where, storage.spill
        slot_data = self._slot_data.get(x.shape[1:])
        if slot_data is None:
            padded = np.append(self.data, 0.0)[where]
            slot_data = np.broadcast_to(padded.reshape(where.shape + (1,) * (x.ndim - 1)),
                                        where.shape + x.shape[1:]).copy()
            slot_data.flags.writeable = False
            self._slot_data[x.shape[1:]] = slot_data
        products = x.take(index, axis=0)
        products *= slot_data
        out = np.add.reduce(products, axis=0, initial=0.0)
        if spill.size:
            # after the slots, in storage order, as bincount adds them; one
            # column at a time, which np.add.at runs twice as fast
            products = x[storage.cols[spill]].reshape(spill.size, -1) * self.data[spill, None]
            columns = out.reshape(out.shape[0], -1)
            for j in range(columns.shape[1]):
                np.add.at(columns[:, j], storage.rows[spill], products[:, j])
        return out

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix these weights store."""
        dense = np.zeros(self.shape)
        dense[self.storage.rows, self.storage.cols] = self.data
        return dense


# Lanczos checks its top Ritz pair every _RITZ_CHECK steps. It stops once
# _SETTLED_CHECKS checks in a row find the pair's residual r at most
# _RESIDUAL_SHARE of the Ritz value's distance from 1, the value moving by
# at most r from one to the next. The start vector is Box-Muller normals
# (Box & Muller, 1958) on ``_uniform``'s draws from _START_SEED, a seed no
# small config seed shares, so every run measures the same interval.
_RITZ_CHECK = 5
_RESIDUAL_SHARE = 0.1
_SETTLED_CHECKS = 3
_START_SEED = 2**64
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


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea & Flood, 2014) on uint64s."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform(seed: int, size: int) -> np.ndarray:
    """``size`` doubles in [0, 1), draw i = mix64(key + (i + 1) gamma) >> 11
    times 2^-53, counter-based (Salmon et al., 2011). An int ``seed`` >= 0
    below 2^64 is the key, so it draws SplitMix64's stream; each higher 64-bit
    limb folds in as key = mix64(key) ^ limb. The package's only source of draws."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF], np.uint64)
    while seed := seed >> 64:
        key = _mix64(key) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    counters = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (_mix64(key + counters) >> np.uint64(11)) * 2.0 ** -53


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
    Weights that are not reversible may never settle, so Lanczos raises
    ValueError at 2n + 15 steps: paths of up to 4 000 nodes settle within
    half of that, and small random graphs within two thirds.
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

    u = _uniform(_START_SEED, 2 * n)  # normals: a direction uniform on the sphere
    w = deflate(np.sqrt(-2.0 * np.log1p(-u[:n])) * np.cos(2.0 * np.pi * u[n:]))
    b = math.sqrt(w @ w)
    v = np.zeros(n)
    alpha, beta = [], []
    top, settled = None, 0
    cap = 2 * n + _RITZ_CHECK * _SETTLED_CHECKS
    while b > _BREAKDOWN:
        if len(alpha) == cap:
            raise ValueError(f"Lanczos did not settle within {cap} steps; "
                             "the weights may not be reversible")
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
    """Per-edge Metropolis-Hastings weights, aligned with topology.edges.
    Built once per topology; every call returns the same read-only array."""
    return topology._edge_weights
