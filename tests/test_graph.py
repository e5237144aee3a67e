"""Topology validation and the two weight-matrix constructions.

Covers: edge-list validation (range, loops, duplicates, connectivity),
canonical edge ordering, exact weight values on small graphs,
stochasticity/symmetry properties over random connected graphs, the
compressed-row weights against dense loop-built references, and their
memory on a large ring.
"""

from __future__ import annotations

import numpy as np
import pytest

from gridconsensus import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    SelfLoopError,
    SparseWeights,
    TopologyError,
    build_topology,
    degree_weight_matrix,
    metropolis_edge_weights,
    metropolis_weight_matrix,
    random_connected_topology,
)

def dense_degree_reference(topology):
    """Loop-built dense degree weights: column j holds 1/(1 + deg(j)) at j
    and at each of j's neighbors."""
    n = topology.n
    w = np.zeros((n, n))
    share = 1.0 / (1.0 + np.asarray(topology.degrees, dtype=float))
    for j in range(n):
        w[j, j] = share[j]
        for nbr in topology.neighbors[j]:
            w[nbr - 1, j] = share[j]
    return w


def dense_metropolis_reference(topology):
    """Loop-built dense Metropolis weights; the diagonal is one minus the
    dense row sum."""
    n = topology.n
    w = np.zeros((n, n))
    deg = topology.degrees
    for i, j in topology.edges:
        a = 1.0 / (1.0 + max(deg[i - 1], deg[j - 1]))
        w[i - 1, j - 1] = a
        w[j - 1, i - 1] = a
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def test_build_topology_canonicalizes_edges():
    topo = build_topology(4, [(3, 2), (1, 2), (4, 3)])
    assert topo.edges == ((1, 2), (2, 3), (3, 4))
    assert topo.neighbors == ((2,), (1, 3), (2, 4), (3,))
    assert topo.degrees == (1, 2, 2, 1)


def test_build_topology_single_node():
    topo = build_topology(1, [])
    assert topo.n == 1
    assert topo.edges == ()
    assert topo.degrees == (0,)


def test_endpoint_out_of_range():
    with pytest.raises(EndpointOutOfRangeError):
        build_topology(3, [(1, 2), (2, 4)])
    with pytest.raises(EndpointOutOfRangeError):
        build_topology(3, [(0, 1)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_topology(3, [(1, 2), (2, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_topology(3, [(1, 2), (2, 1)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_topology(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        build_topology(2, [])


def test_bad_node_count():
    with pytest.raises(TopologyError):
        build_topology(0, [])


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
        deg = topo.degrees
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
        assert np.all(gap <= np.asarray(topo.degrees) * np.finfo(float).eps)


def test_sparse_round_matches_dense_product():
    # reduceat adds each row in column order, a dense product in BLAS
    # order; either stays within a small multiple of eps of the exact sum,
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


def test_sparse_weights_reject_empty_rows():
    # an empty row would make reduceat return the next row's first product
    with pytest.raises(ValueError):
        SparseWeights(np.array([0, 1, 1]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SparseWeights(np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0]))


def test_weights_memory_is_linear_on_large_ring():
    # a dense 10 000-node matrix would take 800 MB; compressed rows take
    # a few bytes per node and edge
    n = 10_000
    ring = build_topology(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
    q = degree_weight_matrix(ring)
    s = metropolis_weight_matrix(ring)
    for w in (q, s):
        assert isinstance(w, SparseWeights)
        assert w.shape == (n, n)
        assert w.nbytes <= 64 * (n + len(ring.edges))
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
