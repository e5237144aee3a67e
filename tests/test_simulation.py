"""Scenario runner: profiles, config validation, multi-step runs, audits.

The without-coordination identity checked here: because the generation
split is range-proportional from the capacity floor, the committed p_G
after any step equals the closed-form coordination allocation of that
step's total desired net power, regardless of the previous state.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import gridconsensus.simulation as sim
from gridconsensus import (
    AuditError,
    BoundViolationError,
    ConvergenceCriteria,
    ConvergenceError,
    DemandSpec,
    DesiredSpec,
    FlowControlResult,
    MODE_WITH,
    MODE_WITHOUT,
    NodeCapacities,
    NotRealizableError,
    ScenarioConfig,
    SimulationRecord,
    coordinate_closed_form,
    default_config_path,
    generate_demand_profile,
    generate_desired_profile,
    load_config,
    run,
)
from conftest import make_reference_caps


@pytest.fixture
def with_config(ref_caps, ring_chord):
    return ScenarioConfig(
        mode=MODE_WITH,
        topology=ring_chord,
        capacities=ref_caps,
        horizon=5,
        demand=DemandSpec(),
        seed=7,
    )


@pytest.fixture
def without_config(ref_caps, ring_chord):
    return ScenarioConfig(
        mode=MODE_WITHOUT,
        topology=ring_chord,
        capacities=ref_caps,
        horizon=5,
        desired=DesiredSpec(),
        seed=7,
    )


class TestSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DemandSpec(kind="random")
        with pytest.raises(ValueError):
            DesiredSpec(kind="fixed")

    def test_explicit_needs_values(self):
        with pytest.raises(ValueError):
            DemandSpec(kind="explicit")
        with pytest.raises(ValueError):
            DesiredSpec(kind="explicit", values=())

    def test_seeded_takes_no_values(self):
        with pytest.raises(ValueError):
            DemandSpec(kind="seeded", values=(100.0,))


class TestDemandProfile:
    def test_explicit_passthrough(self, ref_caps):
        spec = DemandSpec(kind="explicit", values=(100.0, 200.0))
        out = generate_demand_profile(spec, ref_caps, 2, seed=0)
        assert np.array_equal(out, [100.0, 200.0])

    def test_explicit_length_mismatch(self, ref_caps):
        spec = DemandSpec(kind="explicit", values=(100.0,))
        with pytest.raises(ValueError, match="horizon 3"):
            generate_demand_profile(spec, ref_caps, 3, seed=0)

    def test_explicit_unrealizable_names_step(self, ref_caps):
        spec = DemandSpec(kind="explicit", values=(100.0, 400.0))
        with pytest.raises(NotRealizableError, match="step 2"):
            generate_demand_profile(spec, ref_caps, 2, seed=0)

    def test_seeded_stays_realizable(self, ref_caps):
        out = generate_demand_profile(DemandSpec(), ref_caps, 200, seed=3)
        assert np.all(out >= ref_caps.total_gen_lo)
        assert np.all(out <= ref_caps.total_gen_hi)

    def test_seeded_deterministic(self, ref_caps):
        a = generate_demand_profile(DemandSpec(), ref_caps, 10, seed=5)
        b = generate_demand_profile(DemandSpec(), ref_caps, 10, seed=5)
        c = generate_demand_profile(DemandSpec(), ref_caps, 10, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDesiredProfile:
    def test_explicit_passthrough(self, ref_caps):
        row = tuple(float(v) for v in make_reference_caps().gen_hi)
        spec = DesiredSpec(kind="explicit", values=(row,))
        out = generate_desired_profile(spec, ref_caps, 1, seed=0)
        assert np.array_equal(out[0], row)

    def test_explicit_row_width_checked(self, ref_caps):
        spec = DesiredSpec(kind="explicit", values=((1.0, 2.0),))
        with pytest.raises(ValueError, match="6 nodes"):
            generate_desired_profile(spec, ref_caps, 1, seed=0)

    def test_explicit_net_bounds_name_step_and_node(self, ref_caps):
        row = list(ref_caps.net_lo)
        row[1] = ref_caps.net_lo[1] - 5.0
        spec = DesiredSpec(kind="explicit", values=(tuple(ref_caps.net_lo), tuple(row)))
        with pytest.raises(BoundViolationError, match="step 2, node 2"):
            generate_desired_profile(spec, ref_caps, 2, seed=0)

    def test_explicit_unrealizable_sum(self, ref_caps):
        # each entry honours its net box but the total exceeds what
        # the generators can produce together (sum of net_hi > sum of gen_hi)
        spec = DesiredSpec(kind="explicit", values=(tuple(ref_caps.net_hi),))
        with pytest.raises(NotRealizableError, match="step 1"):
            generate_desired_profile(spec, ref_caps, 1, seed=0)

    def test_seeded_rows_are_valid(self, ref_caps):
        out = generate_desired_profile(DesiredSpec(), ref_caps, 300, seed=11)
        assert np.all(out >= ref_caps.net_lo - 1e-12)
        assert np.all(out <= ref_caps.net_hi + 1e-12)
        sums = out.sum(axis=1)
        assert np.all(sums >= ref_caps.total_gen_lo - 1e-9)
        assert np.all(sums <= ref_caps.total_gen_hi + 1e-9)

    def test_seeded_deterministic(self, ref_caps):
        a = generate_desired_profile(DesiredSpec(), ref_caps, 10, seed=5)
        b = generate_desired_profile(DesiredSpec(), ref_caps, 10, seed=5)
        assert np.array_equal(a, b)


class TestScenarioConfig:
    def test_mode_vocabulary(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="mode"):
            ScenarioConfig(mode="hybrid", topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec())

    def test_horizon_positive(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=0, demand=DemandSpec())

    def test_schedule_length_must_match(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="schedule"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord,
                           capacities=(ref_caps, ref_caps), horizon=3,
                           demand=DemandSpec())

    def test_capacity_size_must_match_topology(self, ring_chord):
        small = NodeCapacities(gen_lo=[0], gen_hi=[1], net_lo=[0], net_hi=[1])
        with pytest.raises(ValueError, match="nodes"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=small,
                           horizon=1, demand=DemandSpec())

    def test_leader_in_range(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="leader"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec(), leader=7)

    def test_mode_and_source_must_agree(self, ref_caps, ring_chord):
        with pytest.raises(ValueError):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, desired=DesiredSpec())
        with pytest.raises(ValueError):
            ScenarioConfig(mode=MODE_WITHOUT, topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec())
        with pytest.raises(ValueError):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec(), desired=DesiredSpec())

    def test_initial_generation_checked(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="entries"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec(), initial_generation=(10.0,))
        bad = list(ref_caps.gen_lo)
        bad[3] -= 1.0
        with pytest.raises(ValueError, match="node 4"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, demand=DemandSpec(), initial_generation=tuple(bad))


class TestRunWithCoordination:
    def test_floor_demand_is_a_fixed_point(self, ref_caps, ring_chord):
        config = ScenarioConfig(
            mode=MODE_WITH, topology=ring_chord, capacities=ref_caps, horizon=1,
            demand=DemandSpec(kind="explicit", values=(float(ref_caps.total_gen_lo),)),
        )
        record = run(config)
        assert np.allclose(record.delta[0], 0.0, atol=1e-7)
        assert np.allclose(record.p_G[0], ref_caps.gen_lo, atol=1e-7)
        assert record.max_abs_error <= 1e-7

    def test_tracks_closed_form_each_step(self, with_config, ref_caps):
        record = run(with_config)
        assert record.horizon == 5 and record.n == 6
        assert record.all_audits_passed
        for k in range(record.horizon):
            oracle = coordinate_closed_form(float(record.p_D[k]), ref_caps).desired
            assert np.allclose(record.p_G[k], oracle, rtol=1e-8, atol=1e-8)

    def test_flows_and_errors_are_negligible(self, with_config):
        record = run(with_config)
        assert np.all(record.p_F_net == 0.0)
        assert record.max_abs_error <= 1e-9
        assert np.all(record.gen_iters == 0) and np.all(record.flow_iters == 0)
        assert np.all(record.coord_iters > 0)

    def test_deterministic(self, with_config):
        a, b = run(with_config), run(with_config)
        for name in ("p_D", "p_d", "delta", "p_G", "p_F_net", "p", "p_e"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestRunWithoutCoordination:
    def test_net_power_meets_desired(self, without_config, ref_caps):
        record = run(without_config)
        assert record.all_audits_passed
        assert record.max_abs_error <= 1e-6
        assert np.all(record.p_G >= ref_caps.gen_lo - 1e-8)
        assert np.all(record.p_G <= ref_caps.gen_hi + 1e-8)
        # flows do real work in this regime
        assert np.max(np.abs(record.p_F_net)) > 1.0

    def test_generation_forgets_the_past(self, without_config, ref_caps):
        record = run(without_config)
        for k in range(record.horizon):
            oracle = coordinate_closed_form(float(record.p_D[k]), ref_caps).desired
            assert np.allclose(record.p_G[k], oracle, rtol=1e-8, atol=1e-8)

    def test_balance_each_step(self, without_config):
        record = run(without_config)
        for k in range(record.horizon):
            lhs = record.p_G[k].sum()
            rhs = record.p_d[k].sum()
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
        assert np.all(record.gen_iters > 0) and np.all(record.flow_iters > 0)
        assert np.all(record.coord_iters == 0)

    def test_deterministic(self, without_config):
        a, b = run(without_config), run(without_config)
        for name in ("p_D", "p_d", "delta", "p_G", "p_F_net", "p", "p_e"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestCapacitySchedule:
    def test_per_step_capacities_respected(self, ring_chord):
        base = make_reference_caps()
        tight = NodeCapacities(
            gen_lo=base.gen_lo + 5.0, gen_hi=base.gen_hi - 5.0,
            net_lo=base.net_lo, net_hi=base.net_hi,
        )
        config = ScenarioConfig(
            mode=MODE_WITH, topology=ring_chord, capacities=(base, tight),
            horizon=2,
            demand=DemandSpec(kind="explicit", values=(100.0, 200.0)),
        )
        record = run(config)
        assert record.all_audits_passed
        assert np.all(record.p_G[1] >= tight.gen_lo - 1e-8)
        assert np.all(record.p_G[1] <= tight.gen_hi + 1e-8)


class TestFailureHandling:
    def test_convergence_failure_names_step_and_phase(self, ref_caps, ring_chord):
        config = ScenarioConfig(
            mode=MODE_WITH, topology=ring_chord, capacities=ref_caps, horizon=1,
            demand=DemandSpec(kind="explicit", values=(150.0,)),
            criteria=ConvergenceCriteria(eps=1e-10, max_iters=4),
        )
        with pytest.raises(ConvergenceError, match=r"step 1 \(coordination\)"):
            run(config)

    @pytest.mark.parametrize("mode, phase", [("with", "coordination"),
                                             ("without", "generation")])
    def test_failure_keeps_its_fields_and_location(self, mode, phase):
        config = replace(load_config(default_config_path(mode)),
                         criteria=ConvergenceCriteria(max_iters=3))
        with pytest.raises(ConvergenceError, match=rf"step 1 \({phase}\)") as info:
            run(config)
        assert info.value.iters == 3
        assert info.value.values is not None
        assert info.value.step == 1
        assert info.value.phase == phase

    def test_audit_failure_raises_by_default(self, without_config, monkeypatch):
        # sabotage flow control so per-node mismatches are left standing
        def no_flows(state, topology, weights, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        with pytest.raises(AuditError, match="error annihilation") as info:
            run(without_config)
        assert info.value.step == 1
        assert info.value.phase == "audit"

    def test_audit_failure_can_be_flagged_instead(self, without_config, monkeypatch):
        def no_flows(state, topology, weights, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        record = run(replace(without_config, fail_fast=False))
        assert isinstance(record, SimulationRecord)
        assert record.horizon == without_config.horizon
        assert not record.all_audits_passed
        assert record.max_abs_error > 1e-6
