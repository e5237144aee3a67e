"""Generation control (both regimes), flow control, and step application.

Hand-checked cases: the two-node generation split (ranges 10 and 20 share a
surplus of 15 as 5 and 10), the two-node flow example (mismatch (5, -5)
moves 5 units from node 1 to node 2 in one round), and the path-3 tree flow
where the end nodes shed exactly their initial mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from gridconsensus import (
    BalanceError,
    BoundViolationError,
    ConvergenceCriteria,
    DeltaBounds,
    GridState,
    InfeasibleStepError,
    NodeCapacities,
    apply_step,
    audit_state,
    build_topology,
    compute_delta_bounds,
    coordinate_closed_form,
    flow_closed_form,
    flow_control,
    generation_closed_form,
    generation_distributed,
    generation_with_coordination,
    metropolis_weight_matrix,
)
from conftest import (
    DESIRED_AT_150,
    fixed_capacities,
    neighbor_lists,
    random_connected_topology,
    random_generation_instance,
)

CRIT = ConvergenceCriteria()
# Rounding that CRIT.tolerance grants per unit of summed magnitude on six
# nodes: gamma_k with k = 24 + bit_length(6) = 27 unit roundoffs.
GAMMA_6 = 27 * (np.finfo(float).eps / 2) / (1 - 27 * (np.finfo(float).eps / 2))


def two_node_caps():
    return NodeCapacities(gen_lo=[0, 0], gen_hi=[10, 20], net_lo=[0, 0], net_hi=[10, 20])


class TestGridState:
    def test_initial_state(self):
        state = GridState.initial([1.0, 2.0])
        assert state.k == 0
        assert np.all(state.p == state.p_G)
        assert np.all(state.p_e == 0.0)

    def test_with_desired_recomputes_error(self):
        state = GridState.initial([1.0, 2.0]).with_desired([0.5, 3.0])
        assert np.allclose(state.p_e, [0.5, -1.0])
        assert state.k == 0

    def test_after_generation_is_flowless(self):
        state = GridState.initial([1.0, 2.0]).with_desired([2.0, 2.0])
        staged = state.after_generation([1.0, -1.0])
        assert np.allclose(staged.p_G, [2.0, 1.0])
        assert np.allclose(staged.p, staged.p_G)
        assert np.allclose(staged.p_e, [0.0, -1.0])

    def test_negative_step_index_rejected(self):
        with pytest.raises(ValueError):
            GridState(p_G=[1.0], p_d=[1.0], p_F_net=[0.0], k=-1)

    @pytest.mark.parametrize("p_G", [5.0, [[1.0, 2.0]]])
    def test_generation_must_be_one_dimensional(self, p_G):
        # a scalar raised a bare IndexError before any check
        with pytest.raises(ValueError, match="p_G must have shape"):
            GridState.initial(p_G)


class TestDeltaBounds:
    def test_from_reference_node1(self, ref_caps):
        state = GridState.initial([30.0, 20, 20, 10, 15, 10])
        db = compute_delta_bounds(state, ref_caps)
        assert db.lo[0] == pytest.approx(-20.0)
        assert db.hi[0] == pytest.approx(20.0)

    def test_at_lower_bound(self, ref_caps):
        db = compute_delta_bounds(GridState.initial(ref_caps.gen_lo), ref_caps)
        assert np.allclose(db.lo, 0.0)
        assert np.allclose(db.hi, ref_caps.gen_range)

    def test_at_upper_bound(self, ref_caps):
        db = compute_delta_bounds(GridState.initial(ref_caps.gen_hi), ref_caps)
        assert np.allclose(db.hi, 0.0)
        assert np.allclose(db.lo, -ref_caps.gen_range)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            DeltaBounds(lo=[1.0], hi=[0.0])

    @pytest.mark.parametrize(("lo", "hi"), [([np.nan], [0.0]), ([0.0, 0.0], [1.0, np.nan])])
    def test_nan_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=f"at node {len(lo)}$"):
            DeltaBounds(lo=lo, hi=hi)


class TestGenerationWithCoordination:
    def test_already_on_target(self, ref_caps):
        state = GridState.initial([30.0, 30, 30, 30, 30, 30])
        delta = generation_with_coordination(state, state.p_G, ref_caps)
        assert np.all(delta == 0.0)

    def test_reference_anchor_deltas(self, ref_caps):
        state = GridState.initial(ref_caps.gen_lo)
        delta = generation_with_coordination(state, np.array(DESIRED_AT_150), ref_caps)
        assert np.max(np.abs(delta - (np.array(DESIRED_AT_150) - ref_caps.gen_lo))) <= 1e-12
        assert delta.sum() == pytest.approx(65.0, abs=1e-10)

    def test_target_outside_generation_bounds(self, ref_caps):
        state = GridState.initial(ref_caps.gen_lo)
        bad = ref_caps.gen_lo.copy()
        bad[0] = 55.0  # above node 1's 50 ceiling
        with pytest.raises(BoundViolationError, match="node 1"):
            generation_with_coordination(state, bad, ref_caps)


class TestGenerationClosedForm:
    def test_two_node_split(self):
        caps = two_node_caps()
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, caps)
        delta = generation_closed_form(15.0, state, db)
        assert np.allclose(delta, [5.0, 10.0], atol=1e-12)

    def test_forced_to_lower(self):
        caps = two_node_caps()
        state = GridState.initial([4.0, 6.0])
        db = compute_delta_bounds(state, caps)
        delta = generation_closed_form(float(np.sum(state.p_G) + db.lo.sum()), state, db)
        assert np.allclose(delta, db.lo, atol=1e-10)

    def test_forced_to_upper(self):
        caps = two_node_caps()
        state = GridState.initial([4.0, 6.0])
        db = compute_delta_bounds(state, caps)
        delta = generation_closed_form(float(np.sum(state.p_G) + db.hi.sum()), state, db)
        assert np.allclose(delta, db.hi, atol=1e-10)

    def test_infeasible_step(self):
        caps = two_node_caps()
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, caps)
        with pytest.raises(InfeasibleStepError):
            generation_closed_form(31.0, state, db)
        with pytest.raises(InfeasibleStepError):
            generation_closed_form(-1.0, state, db)

    def test_nan_target_is_infeasible(self):
        # a NaN fails every comparison, so it would pass a check for "below
        # or above the interval" and spread NaN over every change
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, two_node_caps())
        with pytest.raises(InfeasibleStepError):
            generation_closed_form(float("nan"), state, db)

    def test_zero_range_zero_change(self):
        state = GridState.initial([3.0, 4.0])
        db = DeltaBounds(lo=[1.0, -1.0], hi=[1.0, -1.0])
        delta = generation_closed_form(7.0, state, db)  # 7 = 3+4 and lo sums to 0
        assert np.allclose(delta, [1.0, -1.0])


class TestGenerationDistributed:
    def test_two_node_split_matches_closed_form(self):
        caps = two_node_caps()
        topo = build_topology(2, [(1, 2)])
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, caps)
        desired = np.array([7.5, 7.5])  # only the sum matters here
        result = generation_distributed(desired, state, db, topo, CRIT)
        assert np.max(np.abs(result.delta - [5.0, 10.0])) <= 1e-8
        assert result.iters > 0

    def test_single_node_collapses(self):
        caps = NodeCapacities(gen_lo=[0], gen_hi=[10], net_lo=[0], net_hi=[10])
        topo = build_topology(1, [])
        state = GridState.initial([2.0])
        db = compute_delta_bounds(state, caps)
        result = generation_distributed(np.array([9.0]), state, db, topo, CRIT)
        assert result.delta[0] == pytest.approx(7.0, abs=1e-9)

    def test_matches_closed_form_on_random_instances(self):
        # Small random graphs mostly stop within plain rounds; most paths
        # and trees of up to 40 nodes run on into the Chebyshev phase.
        rng = np.random.default_rng(41)
        kinds = [None] * 150 + ["path"] * 20 + ["tree"] * 40
        for kind in kinds:
            max_nodes = 12 if kind is None else 40
            topo, caps, state, db, desired = random_generation_instance(rng, max_nodes, kind)
            closed = generation_closed_form(float(desired.sum()), state, db)
            dist = generation_distributed(desired, state, db, topo, CRIT).delta
            assert np.allclose(dist, closed, rtol=1e-8, atol=1e-8)
            assert np.all(dist >= db.lo - 1e-8)
            assert np.all(dist <= db.hi + 1e-8)
            gap = desired.sum() - state.p_G.sum()
            assert abs(dist.sum() - gap) <= 1e-8 * (1.0 + abs(gap))

    def test_infeasible_rejected(self):
        caps = two_node_caps()
        topo = build_topology(2, [(1, 2)])
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, caps)
        with pytest.raises(InfeasibleStepError):
            generation_distributed(np.array([20.0, 20.0]), state, db, topo, CRIT)

    def test_nan_target_is_infeasible(self):
        # one NaN target makes the total NaN: rejected before ratio
        # consensus, which would run it to the round cap
        topo = build_topology(2, [(1, 2)])
        state = GridState.initial([0.0, 0.0])
        db = compute_delta_bounds(state, two_node_caps())
        with pytest.raises(InfeasibleStepError):
            generation_distributed(np.array([np.nan, 7.5]), state, db, topo, CRIT)


class TestFlowControl:
    def test_no_mismatch_no_flow(self, path3):
        s = metropolis_weight_matrix(path3)
        state = GridState.initial([1.0, 2.0, 3.0]).with_desired([1.0, 2.0, 3.0])
        result = flow_control(state, path3, s, fixed_capacities(state), CRIT)
        assert np.all(result.flows == 0.0)

    def test_two_node_transfer(self):
        topo = build_topology(2, [(1, 2)])
        s = metropolis_weight_matrix(topo)
        state = GridState.initial([10.0, 5.0]).with_desired([5.0, 10.0])
        result = flow_control(state, topo, s, fixed_capacities(state), CRIT)
        # node 1 runs a surplus of 5, so 5 units flow 1 -> 2 on edge (1,2)
        assert result.flows.shape == (1,)
        assert result.flows[0] == pytest.approx(5.0, abs=1e-8)

    def test_path3_cancellation(self, path3):
        s = metropolis_weight_matrix(path3)
        state = GridState.initial([3.0, 0.0, 0.0]).with_desired([0.0, 0.0, 3.0])
        result = flow_control(state, path3, s, fixed_capacities(state), CRIT)
        # mismatch (3, 0, -3): node 1's surplus crosses both edges in turn
        assert np.max(np.abs(result.flows - [3.0, 3.0])) <= 1e-8
        after = apply_step(state, np.zeros(3), result.flows, path3)
        assert np.max(np.abs(after.p_e)) <= 1e-6

    def test_global_imbalance_rejected(self, path3):
        s = metropolis_weight_matrix(path3)
        state = GridState.initial([3.0, 0.0, 0.0]).with_desired([0.0, 0.0, 0.0])
        with pytest.raises(BalanceError):
            flow_control(state, path3, s, fixed_capacities(state), CRIT)


class TestFlowClosedForm:
    def test_tree_anchors(self, path3):
        # path: node 1's surplus crosses both edges; star: each leaf's
        # surplus crosses its only edge toward hub 1 (negative flow)
        assert np.max(np.abs(flow_closed_form([3.0, 0.0, -3.0], path3) - [3.0, 3.0])) <= 1e-12
        star = build_topology(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        mism = np.array([0.0, 4.0, -1.0, -2.0, -1.0])
        assert np.max(np.abs(flow_closed_form(mism, star) + mism[1:])) <= 1e-12
        two = build_topology(2, [(1, 2)])
        assert flow_closed_form([5.0, -5.0], two) == pytest.approx([5.0], abs=1e-12)
        assert flow_closed_form([0.0], build_topology(1, [])).shape == (0,)

    def test_subtree_sums_on_random_trees(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            tree = random_connected_topology(n, rng, extra_edge_prob=0.0)
            mism = rng.uniform(-10.0, 10.0, n)
            mism -= mism.mean()
            flows = flow_closed_form(mism, tree)
            neighbors = neighbor_lists(tree)
            for e, (i, j) in enumerate(tree.edges):
                # the side of edge (i, j) that holds i sends its total to j
                side, frontier = {i}, [i]
                while frontier:
                    u = frontier.pop()
                    for v in neighbors[u - 1]:
                        if v not in side and (u, v) != (i, j):
                            side.add(v)
                            frontier.append(v)
                assert flows[e] == pytest.approx(sum(mism[v - 1] for v in side), abs=1e-9)

    def test_matches_flow_control_on_random_topologies(self):
        # Flow control stops with every node's residual within eps of zero,
        # and its flows are a potential flow, so they differ from the oracle
        # by the electrical flow of that residual: at most half its total
        # absolute value, n * eps / 2, on any edge. The bound n * eps leaves
        # room for float dust.
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            topo = random_connected_topology(n, rng, float(rng.uniform(0.0, 0.6)))
            p_d = rng.uniform(-10.0, 10.0, n)
            noise = rng.uniform(-5.0, 5.0, n)
            state = GridState.initial(p_d + noise - noise.mean()).with_desired(p_d)
            result = flow_control(
                state, topo, metropolis_weight_matrix(topo), fixed_capacities(state), CRIT
            )
            oracle = flow_closed_form(state.p_G - state.p_d, topo)
            assert np.max(np.abs(result.flows - oracle)) <= n * CRIT.eps
            after = apply_step(state, np.zeros(n), oracle, topo)
            assert np.max(np.abs(after.p_e)) <= 1e-9


class TestApplyStep:
    def test_noop_only_advances_the_clock(self):
        topo = build_topology(2, [(1, 2)])
        state = GridState.initial([1.0, 2.0]).with_desired([1.0, 2.0])
        after = apply_step(state, [0.0, 0.0], np.zeros(1), topo)
        assert after.k == 1
        assert np.all(after.p_G == state.p_G)
        assert np.all(after.p_e == 0.0)

    def test_two_node_book_keeping(self):
        # flows fix the mismatch: node 1 sends 5 to node 2
        topo = build_topology(2, [(1, 2)])
        state = GridState.initial([10.0, 5.0]).with_desired([5.0, 10.0])
        after = apply_step(state, [0.0, 0.0], np.array([5.0]), topo)
        assert np.allclose(after.p, [5.0, 10.0])
        assert np.allclose(after.p_e, 0.0)
        assert np.allclose(after.p_F_net, [-5.0, 5.0])

    def test_totals_always_agree(self):
        rng = np.random.default_rng(53)
        topo = build_topology(3, [(1, 2), (2, 3), (1, 3)])
        for _ in range(20):
            state = GridState.initial(rng.uniform(0, 10, 3))
            flows = rng.uniform(-4, 4, 3)
            after = apply_step(state, rng.uniform(-1, 1, 3), flows, topo)
            assert after.p.sum() == pytest.approx(after.p_G.sum(), abs=1e-9)

    def test_wrong_length_flows_rejected(self, path3):
        state = GridState.initial([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="flows"):
            apply_step(state, np.zeros(3), np.zeros(3), path3)

    def test_net_inflow_matches_dense_column_sums_exactly(self):
        # Pins the summation order: per node, lower-numbered neighbors in
        # increasing order, then higher-numbered ones, exactly as the column
        # sum of the antisymmetric pairwise matrix adds them.
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            topo = random_connected_topology(n, rng)
            flows = rng.uniform(-10, 10, len(topo.edges))
            heads, tails = topo.edge_index_arrays()
            pairwise = np.zeros((n, n))
            pairwise[heads, tails] = flows
            pairwise[tails, heads] = -flows
            after = apply_step(GridState.initial(np.zeros(n)), np.zeros(n), flows, topo)
            assert np.array_equal(after.p_F_net, pairwise.sum(axis=0))


class TestAudit:
    def test_clean_state_passes(self, ref_caps, ring_chord):
        desired = np.array(DESIRED_AT_150)
        state = GridState.initial(ref_caps.gen_lo).with_desired(desired)
        delta = generation_with_coordination(state, desired, ref_caps)
        after = apply_step(state, delta, np.zeros(7), ring_chord)
        audit = audit_state(after, ref_caps)
        assert audit.passed
        assert audit.failures() == []
        assert audit.max_abs_error <= 1e-12

    def test_generation_bound_violation_flagged(self, ref_caps, ring_chord):
        state = GridState.initial(ref_caps.gen_lo).with_desired(ref_caps.gen_lo)
        bad = np.zeros(6)
        bad[2] = 30.0  # pushes node 3 above its 40 ceiling
        after = apply_step(state, bad, np.zeros(7), ring_chord)
        audit = audit_state(after, ref_caps, CRIT)
        # node 3's range is 20 and its bounds sum to 60
        slack = CRIT.eps * 20.0 + GAMMA_6 * 60.0
        assert audit.margins["generation bounds"] == pytest.approx(40.0 + slack - 50.0, rel=1e-12)
        # node 3's net power (50) stays inside its [20, 60] box
        assert audit.failures() == [
            "generation bounds", "supply-demand balance", "error annihilation",
        ]

    def test_error_annihilation_flagged(self, ref_caps, ring_chord):
        state = GridState.initial(ref_caps.gen_lo).with_desired(ref_caps.gen_lo + 1.0)
        after = apply_step(state, np.zeros(6), np.zeros(7), ring_chord)
        audit = audit_state(after, ref_caps, CRIT)
        # every node misses by 1; the smallest magnitude, node 1's 10 + 11,
        # gets the least rounding. The total range is 245.
        tol = CRIT.eps * (1.0 + 245.0 / 6) + GAMMA_6 * 21.0
        assert audit.margins["error annihilation"] == pytest.approx(tol - 1.0, rel=1e-12)
        balance = CRIT.eps * 245.0 + GAMMA_6 * (85.0 + 91.0)
        assert audit.margins["supply-demand balance"] == pytest.approx(balance - 6.0, rel=1e-12)
        assert audit.failures() == ["supply-demand balance", "error annihilation"]
        assert audit.max_abs_error == pytest.approx(1.0)

    def test_margins_are_distances_inside_each_bound(self, ref_caps, ring_chord):
        # Node 1 generates 0.5 below its ceiling, the others mid-range. With
        # no flows and every target met exactly, the last three margins are
        # the bare tolerances: eps times what consensus certifies (node 1's
        # range 40, the total range 245, 1 + 245/6 per node for flows) plus
        # rounding on the summed magnitudes. Each is tighter than the fixed
        # constant it replaced.
        p_G = ref_caps.gen_lo + 0.5 * ref_caps.gen_range
        p_G[0] = ref_caps.gen_hi[0] - 0.5
        state = GridState.initial(p_G)
        audit = audit_state(state, ref_caps, CRIT)
        room = np.minimum(p_G - ref_caps.net_lo, ref_caps.net_hi - p_G)
        per_node = 1.0 + 245.0 / 6
        net_slack = (CRIT.eps * np.maximum(ref_caps.gen_range, per_node)
                     + GAMMA_6 * (ref_caps.net_lo + ref_caps.net_hi))
        derived = {
            "generation bounds": 0.5 + CRIT.eps * 40.0 + GAMMA_6 * 60.0,
            "net-power bounds": float(np.min(room + net_slack)),
            "flow conservation": GAMMA_6 * 2.0 * p_G.sum(),
            "supply-demand balance": CRIT.eps * 245.0 + GAMMA_6 * 2.0 * p_G.sum(),
            "error annihilation": CRIT.eps * per_node + GAMMA_6 * 2.0 * p_G.min(),
        }
        assert audit.margins == pytest.approx(derived, rel=1e-12, abs=0.0)
        fixed = {
            "generation bounds": 0.5 + 1e-8,
            "net-power bounds": room.min() + 1e-8,
            "flow conservation": 1e-9,
            "supply-demand balance": 1e-8 * (1.0 + p_G.sum()),
            "error annihilation": 1e-6,
        }
        assert all(derived[name] <= fixed[name] for name in fixed)
        assert audit.passed

    def test_nan_fails_every_check_that_reads_it(self, ref_caps, ring_chord):
        p_G = ref_caps.gen_lo.copy()
        p_G[2] = np.nan
        audit = audit_state(GridState.initial(p_G).with_desired(ref_caps.gen_lo), ref_caps)
        assert audit.failures() == [
            "generation bounds", "net-power bounds", "flow conservation",
            "supply-demand balance", "error annihilation",
        ]
        assert not audit.passed
