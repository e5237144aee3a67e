"""Demand coordination: capacity validation, realizability, and the
closed-form vs distributed split."""

from __future__ import annotations

import numpy as np
import pytest

from gridconsensus import (
    CapacityError,
    ConfigError,
    ConvergenceCriteria,
    ConvergenceError,
    NodeCapacities,
    NotRealizableError,
    build_topology,
    check_realizability,
    coordinate_closed_form,
    coordinate_distributed,
)
from conftest import DESIRED_AT_150, random_capacities, tree_topology
from conftest import random_connected_topology


class TestNodeCapacities:
    def test_valid_reference_system(self, ref_caps):
        assert ref_caps.n == 6
        assert ref_caps.total_gen_lo == 85.0
        assert ref_caps.total_gen_hi == 330.0
        assert np.allclose(ref_caps.gen_range, [40, 60, 20, 35, 45, 45])

    def test_inverted_generation_bounds(self):
        with pytest.raises(CapacityError, match="node 2"):
            NodeCapacities(gen_lo=[0, 20], gen_hi=[10, 10],
                           net_lo=[0, 0], net_hi=[10, 30])

    def test_inverted_net_bounds(self):
        with pytest.raises(CapacityError, match="node 1"):
            NodeCapacities(gen_lo=[0], gen_hi=[1], net_lo=[5], net_hi=[2])

    def test_generation_must_sit_inside_net(self):
        with pytest.raises(CapacityError, match="node 1"):
            NodeCapacities(gen_lo=[0], gen_hi=[10], net_lo=[1], net_hi=[20])
        with pytest.raises(CapacityError, match="node 1"):
            NodeCapacities(gen_lo=[0], gen_hi=[10], net_lo=[0], net_hi=[9])

    @pytest.mark.parametrize(
        ("gen_lo", "gen_hi", "net_lo", "net_hi", "message"),
        [
            ([20], [10], [0], [30], "node 1: generation bounds [20.0, 10.0] inverted"),
            ([1], [1], [5], [2], "node 1: net-power bounds [5.0, 2.0] inverted"),
            ([0], [10], [1], [20], "node 1: generation interval [0.0, 10.0] not contained "
             "in net-power interval [1.0, 20.0]"),
            ([0], [10.5], [0], [9], "node 1: generation interval [0.0, 10.5] not contained "
             "in net-power interval [0.0, 9.0]"),
            # every check fails on this node; the first in order names it
            ([5], [0], [9], [-9], "node 1: generation bounds [5.0, 0.0] inverted"),
            # net bounds inverted and generation outside them: net first
            ([0], [1], [5], [2], "node 1: net-power bounds [5.0, 2.0] inverted"),
        ],
    )
    def test_error_text_names_the_node_and_its_first_failing_check(
        self, gen_lo, gen_hi, net_lo, net_hi, message
    ):
        with pytest.raises(CapacityError) as info:
            NodeCapacities(gen_lo=gen_lo, gen_hi=gen_hi, net_lo=net_lo, net_hi=net_hi)
        assert str(info.value) == message

    def test_the_lowest_bad_node_is_reported(self):
        # node 2 fails the last check, node 4 the first: node order decides
        with pytest.raises(CapacityError) as info:
            NodeCapacities(gen_lo=[0, 0, 0, 8, 0], gen_hi=[1, 3, 1, 2, 1],
                           net_lo=[0, 1, 0, 0, 0], net_hi=[1, 3, 1, 9, 1])
        assert str(info.value) == ("node 2: generation interval [0.0, 3.0] not contained "
                                   "in net-power interval [1.0, 3.0]")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "past-float"])
    def test_non_finite_bounds(self, bad):
        # an integer float() cannot hold is no finite number either, and
        # raises CapacityError, not OverflowError
        with pytest.raises(CapacityError) as info:
            NodeCapacities(gen_lo=[0, 0], gen_hi=[1, 1], net_lo=[0, 0], net_hi=[1, bad])
        assert str(info.value) == f"node 2: net_hi {bad!r} is not a finite number"

    @pytest.mark.parametrize(("bad", "shown"), [
        ("10", "'10'"), (True, "True"), (np.True_, "np.True_"), (None, "None"), (1 + 0j, "(1+0j)"),
    ])
    def test_bounds_must_be_numbers(self, bad, shown):
        # a config file's bounds raise ConfigError for these; built in Python
        # they once passed as floats, '10' as 10.0 and True as 1.0
        with pytest.raises(CapacityError) as info:
            NodeCapacities(gen_lo=[0, 0], gen_hi=[30, 40], net_lo=[0, bad], net_hi=[50, 50])
        assert str(info.value) == f"node 2: net_lo {shown} is not a number"
        with pytest.raises(CapacityError, match="^node 1: gen_hi np.True_ is not a number$"):
            NodeCapacities(gen_lo=[0, 0], gen_hi=np.array([True, True]),
                           net_lo=[0, 0], net_hi=[50, 50])

    def test_numbers_of_any_real_type_are_accepted(self):
        caps = NodeCapacities(gen_lo=[10, np.int64(20)], gen_hi=np.array([30.0, 40.0], np.float32),
                              net_lo=np.array([0, 0]), net_hi=[50.0, np.float64(50)])
        for bounds, expected in ((caps.gen_lo, [10, 20]), (caps.gen_hi, [30, 40]),
                                 (caps.net_lo, [0, 0]), (caps.net_hi, [50, 50])):
            assert bounds.dtype == float and bounds.tolist() == expected

    def test_bounds_are_read_only_copies(self):
        # the caller's arrays stay the caller's: a later write into them
        # cannot invert a bound that was checked
        lo, hi = np.array([0.0, 5.0]), np.array([10.0, 10.0])
        caps = NodeCapacities(gen_lo=lo, gen_hi=hi, net_lo=lo, net_hi=hi)
        hi[0] = -5
        assert caps.gen_hi.tolist() == caps.net_hi.tolist() == [10.0, 10.0]
        for bounds in (caps.gen_lo, caps.gen_hi, caps.net_lo, caps.net_hi):
            assert not bounds.flags.writeable

    def test_shape_mismatch(self):
        with pytest.raises(CapacityError):
            NodeCapacities(gen_lo=[0, 0], gen_hi=[1], net_lo=[0, 0], net_hi=[1, 1])
        for bare in (5.0, np.array(5.0), iter([5.0])):
            with pytest.raises(CapacityError, match="^gen_lo must be a 1-D array, got "):
                NodeCapacities(gen_lo=bare, gen_hi=[5], net_lo=[0], net_hi=[9])


class TestRealizability:
    def test_interior_demand(self, ref_caps):
        report = check_realizability(150.0, ref_caps)
        assert report
        assert report.lower == 85.0 and report.upper == 330.0
        assert report.lower_margin == pytest.approx(65.0)
        assert report.upper_margin == pytest.approx(180.0)

    def test_boundaries_inclusive(self, ref_caps):
        assert check_realizability(85.0, ref_caps)
        assert check_realizability(330.0, ref_caps)

    def test_outside(self, ref_caps):
        assert not check_realizability(84.0, ref_caps)
        assert not check_realizability(330.0001, ref_caps)
        report = check_realizability(84.0, ref_caps)
        assert report.lower_margin == pytest.approx(-1.0)


class TestClosedForm:
    def test_reference_anchor_at_150(self, ref_caps):
        result = coordinate_closed_form(150.0, ref_caps)
        assert np.max(np.abs(result.desired - np.array(DESIRED_AT_150))) <= 1e-12
        assert result.desired.sum() == pytest.approx(150.0, abs=1e-12)

    def test_floor_demand_forces_lower_bounds(self, ref_caps):
        result = coordinate_closed_form(85.0, ref_caps)
        assert np.allclose(result.desired, ref_caps.gen_lo, atol=1e-13)

    def test_ceiling_demand_forces_upper_bounds(self, ref_caps):
        result = coordinate_closed_form(330.0, ref_caps)
        assert np.allclose(result.desired, ref_caps.gen_hi, atol=1e-13)

    def test_not_realizable_raises_with_report(self, ref_caps):
        with pytest.raises(NotRealizableError) as info:
            coordinate_closed_form(400.0, ref_caps)
        assert info.value.report is not None
        assert info.value.report.upper_margin == pytest.approx(-70.0)

    def test_bounds_and_balance_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            caps = random_capacities(rng, int(rng.integers(1, 13)))
            p_D = rng.uniform(caps.total_gen_lo, caps.total_gen_hi)
            desired = coordinate_closed_form(p_D, caps).desired
            assert np.all(desired >= caps.gen_lo - 1e-9)
            assert np.all(desired <= caps.gen_hi + 1e-9)
            assert abs(desired.sum() - p_D) <= 1e-8 * (1.0 + abs(p_D))

    def test_monotone_in_demand(self, ref_caps):
        lower = coordinate_closed_form(120.0, ref_caps).desired
        higher = coordinate_closed_form(240.0, ref_caps).desired
        assert np.all(higher >= lower - 1e-12)

    def test_all_generators_fixed(self):
        # realizable interval collapses to a point, so the only acceptable
        # demand is the floor itself; anything else fails realizability
        caps = NodeCapacities(gen_lo=[5, 7], gen_hi=[5, 7], net_lo=[5, 7], net_hi=[5, 7])
        result = coordinate_closed_form(12.0, caps)
        assert np.allclose(result.desired, [5.0, 7.0])
        with pytest.raises(NotRealizableError):
            coordinate_closed_form(12.5, caps)


class TestDistributed:
    def test_single_node(self):
        caps = NodeCapacities(gen_lo=[10], gen_hi=[50], net_lo=[10], net_hi=[50])
        topo = build_topology(1, [])
        result = coordinate_distributed(30.0, caps, topo)
        assert result.desired[0] == pytest.approx(30.0, abs=1e-9)

    def test_matches_closed_form_on_reference(self, ref_caps, ring_chord):
        closed = coordinate_closed_form(150.0, ref_caps).desired
        dist = coordinate_distributed(150.0, ref_caps, ring_chord, leader=1)
        assert dist.iters > 0
        assert np.max(np.abs(dist.desired - closed)) <= 1e-8

    def test_leader_choice_does_not_matter(self, ref_caps, ring_chord):
        results = [
            coordinate_distributed(203.0, ref_caps, ring_chord, leader=l).desired
            for l in range(1, 7)
        ]
        for other in results[1:]:
            assert np.max(np.abs(other - results[0])) <= 1e-8

    def test_leader_out_of_range(self, ref_caps, ring_chord):
        with pytest.raises(ValueError):
            coordinate_distributed(150.0, ref_caps, ring_chord, leader=0)
        with pytest.raises(ValueError):
            coordinate_distributed(150.0, ref_caps, ring_chord, leader=7)
        # non-integers used to index the leader's entry: IndexError, or
        # node 1 for True
        for leader in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="leader must be an integer"):
                coordinate_distributed(150.0, ref_caps, ring_chord, leader=leader)

    def test_bad_leader_is_a_config_error(self, ref_caps, ring_chord):
        # a GridConsensusError naming its field, like ScenarioConfig's check
        for leader in (0, ring_chord.n + 1, True):
            with pytest.raises(ConfigError) as info:
                coordinate_distributed(150.0, ref_caps, ring_chord, leader=leader)
            assert info.value.field == "leader"
            assert f"must be an integer in 1..{ring_chord.n}, got {leader!r}" in str(info.value)

    def test_size_mismatch(self, ref_caps, path3):
        with pytest.raises(CapacityError):
            coordinate_distributed(150.0, ref_caps, path3)

    def test_not_realizable(self, ref_caps, ring_chord):
        with pytest.raises(NotRealizableError):
            coordinate_distributed(84.9, ref_caps, ring_chord)

    def test_round_cap_raises(self, ref_caps, ring_chord):
        with pytest.raises(ConvergenceError):
            coordinate_distributed(150.0, ref_caps, ring_chord,
                                   criteria=ConvergenceCriteria(eps=1e-14, max_iters=4))

    def test_all_generators_fixed_degenerate(self, ring_chord):
        vals = [10.0, 20.0, 20.0, 10.0, 15.0, 10.0]
        caps = NodeCapacities(gen_lo=vals, gen_hi=vals, net_lo=vals, net_hi=vals)
        result = coordinate_distributed(85.0, caps, ring_chord)
        assert np.allclose(result.desired, vals)
        with pytest.raises(NotRealizableError):
            coordinate_distributed(86.0, caps, ring_chord)

    def test_matches_closed_form_on_random_instances(self):
        # Small random graphs mostly stop within plain rounds; most paths
        # and trees of up to 40 nodes run on into the Chebyshev phase.
        rng = np.random.default_rng(29)
        kinds = [None] * 100 + ["path"] * 20 + ["tree"] * 40
        for kind in kinds:
            if kind is None:
                n = int(rng.integers(1, 13))
                topo = random_connected_topology(n, rng)
            else:
                n = int(rng.integers(1, 41))
                topo = tree_topology(kind, n, rng)
            caps = random_capacities(rng, n)
            p_D = rng.uniform(caps.total_gen_lo, caps.total_gen_hi)
            closed = coordinate_closed_form(p_D, caps).desired
            dist = coordinate_distributed(p_D, caps, topo).desired
            assert np.max(np.abs(dist - closed)) <= 1e-8 * (1.0 + np.max(np.abs(closed)))
            assert np.all(dist >= caps.gen_lo - 1e-8)
            assert np.all(dist <= caps.gen_hi + 1e-8)
            assert abs(dist.sum() - p_D) <= 1e-8 * (1.0 + abs(p_D))
