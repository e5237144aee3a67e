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
from hypothesis import given, settings
from hypothesis import strategies as st

import gridconsensus.simulation as sim
from gridconsensus import (
    AuditError,
    ConfigError,
    ConvergenceCriteria,
    ConvergenceError,
    FlowControlResult,
    GridState,
    MODE_WITH,
    MODE_WITHOUT,
    NodeCapacities,
    ScenarioConfig,
    SimulationRecord,
    compute_delta_bounds,
    coordinate_closed_form,
    default_config_path,
    generate_demand_profile,
    generate_desired_profile,
    generation_closed_form,
    load_config,
    run,
)
from conftest import make_reference_caps, path_topology, random_capacities
from conftest import random_connected_topology


@pytest.fixture
def with_config(ref_caps, ring_chord):
    return ScenarioConfig(
        mode=MODE_WITH,
        topology=ring_chord,
        capacities=ref_caps,
        horizon=5,
        seed=7,
    )


@pytest.fixture
def without_config(ref_caps, ring_chord):
    return ScenarioConfig(
        mode=MODE_WITHOUT,
        topology=ring_chord,
        capacities=ref_caps,
        horizon=5,
        seed=7,
    )


class TestDemandProfile:
    def test_explicit_passthrough(self, with_config):
        config = replace(with_config, horizon=2, profile=(100.0, 200.0))
        assert np.array_equal(generate_demand_profile(config), [100.0, 200.0])

    def test_seeded_stays_realizable(self, with_config, ref_caps):
        out = generate_demand_profile(replace(with_config, horizon=200, seed=3))
        assert np.all(out >= ref_caps.total_gen_lo)
        assert np.all(out <= ref_caps.total_gen_hi)

    def test_seeded_deterministic(self, with_config):
        a, b, c = (generate_demand_profile(replace(with_config, horizon=10, seed=seed))
                   for seed in (5, 5, 6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDesiredProfile:
    def test_explicit_passthrough(self, without_config):
        row = tuple(float(v) for v in make_reference_caps().gen_hi)
        out = generate_desired_profile(replace(without_config, horizon=1, profile=(row,)))
        assert np.array_equal(out[0], row)

    def test_seeded_rows_are_valid(self, without_config, ref_caps):
        out = generate_desired_profile(replace(without_config, horizon=300, seed=11))
        assert np.all(out >= ref_caps.net_lo - 1e-12)
        assert np.all(out <= ref_caps.net_hi + 1e-12)
        sums = out.sum(axis=1)
        assert np.all(sums >= ref_caps.total_gen_lo - 1e-9)
        assert np.all(sums <= ref_caps.total_gen_hi + 1e-9)

    def test_seeded_deterministic(self, without_config):
        a, b = (generate_desired_profile(replace(without_config, horizon=10, seed=5))
                for _ in range(2))
        assert np.array_equal(a, b)


class TestScenarioConfig:
    def test_mode_vocabulary(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="mode"):
            ScenarioConfig(mode="hybrid", topology=ring_chord, capacities=ref_caps,
                           horizon=1)

    def test_horizon_positive(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=0)

    def test_capacities_must_be_one_set(self, ref_caps, ring_chord):
        # A run has one capacity set; a per-step tuple is refused up front
        # rather than failing later on a missing attribute.
        with pytest.raises(ValueError, match="one NodeCapacities, got tuple"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord,
                           capacities=(ref_caps, ref_caps), horizon=2)

    def test_capacity_size_must_match_topology(self, ring_chord):
        small = NodeCapacities(gen_lo=[0], gen_hi=[1], net_lo=[0], net_hi=[1])
        with pytest.raises(ValueError, match="nodes"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=small,
                           horizon=1)

    def test_leader_in_range(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="leader"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, leader=7)

    @pytest.mark.parametrize(("name", "value"), [
        ("horizon", 2.5), ("horizon", True),
        pytest.param("horizon", np.int64(2), id="horizon-int64"),
        ("leader", 1.5), ("leader", True), ("seed", 1.5), ("seed", False),
    ])
    def test_run_settings_must_be_integers(self, ref_caps, ring_chord, name, value):
        # Values like these used to be accepted and fail inside run() with a
        # bare TypeError or IndexError, carrying no step or phase.
        settings = {"horizon": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name}: must be an integer") as info:
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           **settings)
        assert info.value.field == name

    def test_seed_must_be_non_negative(self, ref_caps, ring_chord):
        # numpy's generator refuses negative seeds; refusing them here gives
        # a message that names the field instead of a bare error from run().
        with pytest.raises(ValueError, match="^seed: must be a non-negative integer") as info:
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, seed=-1)
        assert info.value.field == "seed"

    def test_nan_initial_generation_rejected(self, ref_caps, ring_chord):
        # NaN fails every comparison, so a bounds test written as "below lo
        # or above hi" let it through, and the run failed at step 1 with a
        # required generation change of nan; it is refused as loading
        # refuses it, before the bounds
        p_G0 = (np.nan,) + tuple(ref_caps.gen_lo[1:])
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, initial_generation=p_G0)
        assert str(info.value) == "initial_generation[0]: expected a finite number, got nan"
        assert info.value.field == "initial_generation[0]"

    def test_initial_generation_checked(self, ref_caps, ring_chord):
        with pytest.raises(ValueError, match="entries"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, initial_generation=(10.0,))
        bad = list(ref_caps.gen_lo)
        bad[3] -= 1.0
        with pytest.raises(ValueError, match="node 4"):
            ScenarioConfig(mode=MODE_WITH, topology=ring_chord, capacities=ref_caps,
                           horizon=1, initial_generation=tuple(bad))


class TestRunWithCoordination:
    def test_floor_demand_is_a_fixed_point(self, ref_caps, ring_chord):
        config = ScenarioConfig(
            mode=MODE_WITH, topology=ring_chord, capacities=ref_caps, horizon=1,
            profile=(float(ref_caps.total_gen_lo),),
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

    def test_starts_from_the_initial_generation(self, without_config, ref_caps):
        p_G0 = ref_caps.gen_lo + 0.25 * ref_caps.gen_range
        record = run(replace(without_config, initial_generation=tuple(p_G0)))
        assert record.all_audits_passed
        state = GridState.initial(p_G0).with_desired(record.p_d[0])
        oracle = generation_closed_form(
            float(record.p_D[0]), state, compute_delta_bounds(state, ref_caps)
        )
        assert np.allclose(record.delta[0], oracle, rtol=1e-8, atol=1e-8)
        # the seeded start sits at the floors, so this step really differs
        assert np.max(np.abs(record.delta[0] - run(without_config).delta[0])) > 1.0

    def test_fixed_generators_leave_the_work_to_flows(self, ref_caps, ring_chord):
        # gen_lo == gen_hi everywhere: the realizable total is one point, so
        # generation control returns without rounds and most sampled rows
        # fall back to the box-interior centre. Unequal net margins keep
        # the desired rows away from the generation, so flows still move.
        gen = ref_caps.gen_lo
        i = np.arange(6)
        caps = NodeCapacities(gen_lo=gen, gen_hi=gen,
                              net_lo=gen - (i + 1), net_hi=gen + 7 * (i + 2))
        record = run(ScenarioConfig(mode=MODE_WITHOUT, topology=ring_chord,
                                    capacities=caps, horizon=20,
                                    seed=3))
        assert record.all_audits_passed
        assert np.all(record.gen_iters == 0)
        assert np.all(record.p_G == gen)
        assert np.all(np.max(np.abs(record.p_F_net), axis=1) > 0.1)

    def test_deterministic(self, without_config):
        a, b = run(without_config), run(without_config)
        for name in ("p_D", "p_d", "delta", "p_G", "p_F_net", "p", "p_e"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestFailureHandling:
    def test_convergence_failure_names_step_and_phase(self, ref_caps, ring_chord):
        config = ScenarioConfig(
            mode=MODE_WITH, topology=ring_chord, capacities=ref_caps, horizon=1,
            profile=(150.0,),
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
        def no_flows(state, topology, weights, caps, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        with pytest.raises(AuditError, match="error annihilation") as info:
            run(without_config)
        assert info.value.step == 1
        assert info.value.phase == "audit"
        assert info.value.audit.step == 1
        assert info.value.audit.margins["error annihilation"] < 0

    def test_audit_failure_can_be_flagged_instead(self, without_config, monkeypatch):
        def no_flows(state, topology, weights, caps, criteria):
            return FlowControlResult(flows=np.zeros(len(topology.edges)), iters=1)

        monkeypatch.setattr(sim, "flow_control", no_flows)
        record = run(replace(without_config, fail_fast=False))
        assert isinstance(record, SimulationRecord)
        assert record.horizon == without_config.horizon
        assert not record.all_audits_passed
        assert record.max_abs_error > 1e-6


def _scaled(caps: NodeCapacities, scale: float) -> NodeCapacities:
    return NodeCapacities(gen_lo=caps.gen_lo * scale, gen_hi=caps.gen_hi * scale,
                          net_lo=caps.net_lo * scale, net_hi=caps.net_hi * scale)


def _assert_within_budget(config: ScenarioConfig) -> None:
    """Run the config: every audit passes, and every step matches its
    closed form within what eps certifies per node, eps * range plus
    rounding, the slack the generation bounds get."""
    record = run(config)
    assert record.all_audits_passed
    caps, crit = config.capacities, config.criteria
    budget = crit.tolerance(caps.gen_range, np.abs(caps.gen_lo) + np.abs(caps.gen_hi), caps.n)
    p_G = caps.gen_lo
    for k in range(record.horizon):
        p_D = float(record.p_D[k])
        if record.mode == MODE_WITH:
            closed = coordinate_closed_form(p_D, caps).desired
            assert np.all(np.abs(record.p_d[k] - closed) <= budget)
        else:
            state = GridState.initial(p_G).with_desired(record.p_d[k])
            closed = generation_closed_form(p_D, state, compute_delta_bounds(state, caps))
            assert np.all(np.abs(record.delta[k] - closed) <= budget)
        p_G = record.p_G[k]


class TestErrorBudget:
    """Every check's tolerance scales with eps and the capacity ranges, so
    valid configs pass at any capacity scale and any eps."""

    @pytest.mark.parametrize(("scale", "eps"), [
        (1e-3, 1e-5), (1.0, 1e-5), (1e3, 1e-8), (1e3, 1e-5),
        (1e6, 1e-12), (1e6, 1e-10), (1e6, 1e-8), (1e6, 1e-5),
    ])
    def test_shipped_without_config_at_any_scale(self, scale, eps):
        # Each cell failed while the tolerances were absolute: the flow
        # guard raised BalanceError, or at 1e-3 the audit's balance and
        # error checks failed.
        config = load_config(default_config_path("without"))
        _assert_within_budget(replace(
            config, capacities=_scaled(config.capacities, scale), horizon=5,
            criteria=ConvergenceCriteria(eps=eps),
        ))

    @pytest.mark.parametrize("end", ["total_gen_hi", "total_gen_lo"])
    @pytest.mark.parametrize(("scale", "eps"), [(10.0, 1e-10), (1.0, 1e-6)])
    def test_shipped_with_config_at_the_capacity_ends(self, end, scale, eps):
        # Demand at an end puts every exact target on a generation bound,
        # so the split crosses it by up to eps * range: 1.6e-8 against a
        # fixed slack of 1e-8 at x10 capacities and the default eps.
        config = load_config(default_config_path("with"))
        caps = _scaled(config.capacities, scale)
        _assert_within_budget(replace(
            config, capacities=caps, horizon=1,
            profile=(getattr(caps, end),),
            criteria=ConvergenceCriteria(eps=eps),
        ))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("shipped", "path", "random")),
    mode=st.sampled_from((MODE_WITH, MODE_WITHOUT)),
    n=st.integers(1, 20),
    log_eps=st.floats(-12.0, -5.0),
    log_scale=st.floats(-3.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_audit_and_oracle_holds_at_any_eps_and_scale(
    kind, mode, n, log_eps, log_scale, seed
):
    rng = np.random.default_rng(seed)
    if kind == "shipped":
        shipped = load_config(default_config_path("with"))
        topo, caps = shipped.topology, shipped.capacities
    else:
        topo = path_topology(n) if kind == "path" else random_connected_topology(n, rng, 0.3)
        caps = random_capacities(rng, n)
    _assert_within_budget(ScenarioConfig(
        mode=mode, topology=topo, capacities=_scaled(caps, 10.0**log_scale), horizon=3,
        criteria=ConvergenceCriteria(eps=10.0**log_eps), seed=seed % 1000,
    ))
