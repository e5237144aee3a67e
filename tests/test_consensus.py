"""Consensus kernel: linear rounds, ratio consensus, flow accumulator.

The numeric claims here either follow from hand-iterated small cases
(two-node and path-3 flow examples), from conservation identities, or from
comparing against the initial-sum oracle that the iterations provably
approach.
"""

from __future__ import annotations

import numpy as np
import pytest

from gridconsensus import (
    ConvergenceCriteria,
    ConvergenceError,
    DegenerateDenominatorError,
    build_topology,
    degree_weight_matrix,
    flow_accumulate,
    metropolis_weight_matrix,
    random_connected_topology,
    ratio_consensus,
)

CRIT = ConvergenceCriteria()


def test_criteria_validation():
    with pytest.raises(ValueError):
        ConvergenceCriteria(eps=0.0)
    with pytest.raises(ValueError):
        ConvergenceCriteria(eps=-1e-9)
    with pytest.raises(ValueError):
        ConvergenceCriteria(max_iters=0)


class TestIterateLinear:
    """The plain linear round x <- W @ x that both engines build on."""

    def test_sum_preservation_every_round(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            topo = random_connected_topology(n, rng)
            x0 = rng.uniform(-10, 10, n)
            target = x0.sum()
            for w in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)):
                x = x0.copy()
                for _round in range(200):
                    x = w @ x
                    assert abs(x.sum() - target) <= 1e-9 * (1.0 + abs(target))


class TestRatioConsensus:
    def test_equal_inputs_give_ratio_one(self, path3):
        q = degree_weight_matrix(path3)
        res = ratio_consensus(q, [2.0, 3.0, 4.0], [2.0, 3.0, 4.0], CRIT)
        assert np.allclose(res.values, 1.0, atol=1e-12)

    def test_scaled_inputs_give_the_scale(self, path3):
        q = degree_weight_matrix(path3)
        res = ratio_consensus(q, [4.0, 6.0, 8.0], [2.0, 3.0, 4.0], CRIT)
        assert np.allclose(res.values, 2.0, atol=1e-9)

    def test_path3_leader_style_inputs(self, path3):
        # sums: 6 over 3, every node's ratio approaches 2
        q = degree_weight_matrix(path3)
        res = ratio_consensus(q, [6.0, 0.0, 0.0], [1.0, 1.0, 1.0], CRIT)
        assert np.max(np.abs(res.values - 2.0)) <= 10 * CRIT.eps

    def test_matches_initial_sum_ratio_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            topo = random_connected_topology(n, rng)
            q = degree_weight_matrix(topo)
            x0 = rng.uniform(-5, 5, n)
            y0 = rng.uniform(0.1, 4.0, n)
            res = ratio_consensus(q, x0, y0, CRIT)
            truth = x0.sum() / y0.sum()
            assert np.max(np.abs(res.values - truth)) <= 10 * CRIT.eps

    def test_zero_denominator_mass_rejected(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(DegenerateDenominatorError):
            ratio_consensus(q, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], CRIT)

    def test_negative_denominator_rejected(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ValueError):
            ratio_consensus(q, [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], CRIT)

    def test_operand_length_must_match_weights(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ValueError):
            ratio_consensus(q, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0], CRIT)

    def test_sparse_rounds_match_dense_reference(self):
        # the dense matrix is the reference engine; the two add each row in
        # a different order, so values agree to float dust and the stopping
        # round may move by one
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 31))
            topo = random_connected_topology(n, rng)
            q = degree_weight_matrix(topo)
            x0 = rng.uniform(-5, 5, n)
            y0 = rng.uniform(0.1, 4.0, n)
            sparse = ratio_consensus(q, x0, y0, CRIT)
            dense = ratio_consensus(q.toarray(), x0, y0, CRIT)
            assert abs(sparse.iters - dense.iters) <= 1
            assert np.max(np.abs(sparse.values - dense.values)) <= 1e-12

    def test_round_cap_raises(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ConvergenceError) as info:
            ratio_consensus(q, [6.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                            ConvergenceCriteria(eps=1e-14, max_iters=3))
        assert info.value.iters == 3
        assert info.value.values.shape == (3,)


class TestFlowAccumulate:
    def test_zero_input_stays_zero(self, path3):
        s = metropolis_weight_matrix(path3)
        acc = flow_accumulate(path3, s, np.zeros(3), CRIT)
        assert np.all(acc.h == 0.0) and np.all(acc.g == 0.0)
        assert acc.iters == 1

    def test_two_node_hand_iteration(self):
        # edge weight 1/2; one round moves both values to 0 and books
        # h[(1,2)] = 1/2 * (-5 - 5) = -5; the second round only confirms.
        topo = build_topology(2, [(1, 2)])
        s = metropolis_weight_matrix(topo)
        acc = flow_accumulate(topo, s, [5.0, -5.0], CRIT)
        assert acc.iters == 2
        assert acc.h.shape == (1,)
        assert acc.h[0] == pytest.approx(-5.0, abs=1e-12)
        assert np.max(np.abs(acc.g)) <= 1e-12

    def test_path3_steady_accumulator(self, path3):
        # on a tree the per-node sum conditions pin the accumulator:
        # end nodes must shed their whole initial value over their one edge,
        # so both edges (1,2) and (2,3) carry -3 and node 2 nets zero
        s = metropolis_weight_matrix(path3)
        acc = flow_accumulate(path3, s, [3.0, 0.0, -3.0], CRIT)
        assert acc.h.shape == (2,)
        assert np.max(np.abs(acc.h - [-3.0, -3.0])) <= 1e-8
        assert np.max(np.abs(acc.g)) <= 10 * CRIT.eps

    def test_antisymmetry_exact_and_telescoping(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            topo = random_connected_topology(n, rng)
            s = metropolis_weight_matrix(topo)
            g0 = rng.uniform(-8, 8, n)
            g0 -= g0.mean()
            acc = flow_accumulate(topo, s, g0, CRIT)
            assert acc.h.shape == (len(topo.edges),)
            # one value per edge, booked +h at its lower endpoint and -h at
            # its higher one: the pairwise view is antisymmetric by construction
            heads, tails = topo.edge_index_arrays()
            pairwise = np.zeros((n, n))
            pairwise[heads, tails] = acc.h
            pairwise[tails, heads] = -acc.h
            assert np.array_equal(pairwise, -pairwise.T)
            # telescoping: final value = initial + accumulated inflow
            assert np.max(np.abs(acc.g - (g0 + pairwise.sum(axis=1)))) <= 1e-9
            # averaging: balanced input, so everything annihilates
            assert np.max(np.abs(acc.g)) <= 10 * CRIT.eps

    def test_unbalanced_input_settles_at_mean(self):
        topo = build_topology(2, [(1, 2)])
        s = metropolis_weight_matrix(topo)
        acc = flow_accumulate(topo, s, [4.0, 0.0], CRIT)
        assert np.allclose(acc.g, 2.0, atol=1e-8)

    def test_round_cap_raises(self, path3):
        s = metropolis_weight_matrix(path3)
        with pytest.raises(ConvergenceError):
            flow_accumulate(path3, s, [3.0, 0.0, -3.0],
                            ConvergenceCriteria(eps=1e-14, max_iters=2))
