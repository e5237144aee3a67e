"""Acceptance suite — eight checks, one verdict line each.

1. Distributed coordination matches the closed form on the six-node
   reference system for 100 seeded demands (1e-8 relative per node, sum
   within 1e-8 of the demand), in under a second.
2. Demand 150 on the reference system splits into the known anchor
   sextuple within 1e-3 absolute, closed-form and distributed alike.
3. Distributed generation control matches its closed form on 1000 seeded
   feasible instances (n <= 12): 1e-8 agreement, bounds with 1e-8 slack,
   aggregate change closes the demand gap within 1e-8.
4. Flow control cancels per-node mismatch on 1000 seeded balanced
   instances (max residual error 1e-6, net inflows summing to zero within
   1e-12) and hits the tree-graph flow values (path and star) within 1e-8.
5. 50-step with-coordination run on the shipped scenario: every audit
   passes, flows identically zero, under 5 s.
6. 50-step without-coordination run on the shipped scenario: targets
   exceed at least one generator's own bounds at some step, yet final net
   power matches desired within 1e-6 with generation always within
   bounds, under 5 s.
7. Structural invariants on 100 random connected graphs: weight-matrix
   row/column sums exact to 1e-12, per-round sum preservation to 1e-9,
   leader-choice invariance of coordination to 1e-8.
8. Identical config and seed give byte-identical CSV exports.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the verdict
lines for passing checks too.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from gridconsensus import (
    ConvergenceCriteria,
    GridState,
    apply_step,
    build_topology,
    coordinate_closed_form,
    coordinate_distributed,
    default_config_path,
    degree_weight_matrix,
    export_record,
    flow_control,
    generation_closed_form,
    generation_distributed,
    load_config,
    metropolis_weight_matrix,
    run,
)
from conftest import (
    RING_CHORD_EDGES,
    fixed_capacities,
    make_reference_caps,
    random_connected_topology,
    random_generation_instance,
)

ANCHOR_AT_150 = (20.6122, 35.9184, 25.3061, 19.2857, 26.9388, 21.9388)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_1_coordination_matches_closed_form():
    caps = make_reference_caps()
    topology = build_topology(6, RING_CHORD_EDGES)
    rng = np.random.default_rng(2026)
    demands = rng.uniform(85.0, 330.0, 100)
    worst_rel = 0.0
    worst_sum = 0.0
    start = time.perf_counter()
    for p_D in demands:
        closed = coordinate_closed_form(float(p_D), caps).desired
        dist = coordinate_distributed(float(p_D), caps, topology).desired
        worst_rel = max(worst_rel, float(np.max(np.abs(dist - closed) / np.abs(closed))))
        worst_sum = max(worst_sum, abs(float(dist.sum()) - float(p_D)) / float(p_D))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-8 and worst_sum <= 1e-8 and elapsed < 1.0
    line = _verdict(
        1, ok,
        f"100 demands: max per-node relative gap {worst_rel:.2e} (<= 1e-8), "
        f"max relative sum gap {worst_sum:.2e} (<= 1e-8), {elapsed:.2f} s (< 1 s)",
    )
    assert ok, line


def test_criterion_2_anchor_split_at_150():
    caps = make_reference_caps()
    topology = build_topology(6, RING_CHORD_EDGES)
    anchor = np.array(ANCHOR_AT_150)
    closed = coordinate_closed_form(150.0, caps).desired
    dist = coordinate_distributed(150.0, caps, topology).desired
    gap_closed = float(np.max(np.abs(closed - anchor)))
    gap_dist = float(np.max(np.abs(dist - anchor)))
    ok = gap_closed <= 1e-3 and gap_dist <= 1e-3
    line = _verdict(
        2, ok,
        f"demand 150 vs anchor: closed form off by {gap_closed:.2e}, "
        f"distributed off by {gap_dist:.2e} (both <= 1e-3)",
    )
    assert ok, line


def test_criterion_3_generation_matches_closed_form():
    rng = np.random.default_rng(2027)
    criteria = ConvergenceCriteria(eps=1e-12)  # certifies the 1e-8 sum target
    worst_gap = 0.0
    worst_bound = 0.0
    worst_close = 0.0
    for _ in range(1000):
        topology, caps, state, db, desired = random_generation_instance(rng, max_nodes=12)
        closed = generation_closed_form(float(desired.sum()), state, db)
        dist = generation_distributed(desired, state, db, topology, criteria).delta
        scale = np.maximum(np.abs(closed), 1.0)  # relative, floored at unit scale
        worst_gap = max(worst_gap, float(np.max(np.abs(dist - closed) / scale)))
        worst_bound = max(
            worst_bound,
            float(np.max(db.lo - dist, initial=0.0)),
            float(np.max(dist - db.hi, initial=0.0)),
        )
        gap = float(desired.sum()) - float(state.p_G.sum())
        worst_close = max(worst_close, abs(float(dist.sum()) - gap))
    ok = worst_gap <= 1e-8 and worst_bound <= 1e-8 and worst_close <= 1e-8
    line = _verdict(
        3, ok,
        f"1000 instances: max closed-form gap {worst_gap:.2e} (<= 1e-8), "
        f"max bound overshoot {worst_bound:.2e} (<= 1e-8), "
        f"max aggregate-change error {worst_close:.2e} (<= 1e-8)",
    )
    assert ok, line


def test_criterion_4_flow_control_annihilates_mismatch():
    rng = np.random.default_rng(2028)
    worst_err = 0.0
    worst_net = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        topology = random_connected_topology(n, rng)
        weights = metropolis_weight_matrix(topology)
        p_d = rng.uniform(-10.0, 10.0, n)
        noise = rng.uniform(-5.0, 5.0, n)
        p_G = p_d + noise - noise.mean()  # balanced mismatch
        state = GridState.initial(p_G).with_desired(p_d)
        result = flow_control(state, topology, weights, fixed_capacities(state))
        after = apply_step(state, np.zeros(n), result.flows, topology)
        worst_err = max(worst_err, float(np.max(np.abs(after.p_e))))
        worst_net = max(worst_net, abs(float(np.sum(after.p_F_net))))

    # tree anchors: on a path with mismatch (3, 0, -3) the whole surplus
    # crosses both edges, and on a star each leaf's surplus crosses its
    # only edge (hub 1 is the lower endpoint, so leaf-to-hub flow is negative)
    path = build_topology(3, [(1, 2), (2, 3)])
    state = GridState.initial(np.array([3.0, 0.0, -3.0])).with_desired(np.zeros(3))
    flows = flow_control(
        state, path, metropolis_weight_matrix(path), fixed_capacities(state)
    ).flows
    tree_gap = float(np.max(np.abs(flows - [3.0, 3.0])))

    star = build_topology(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    mism = np.array([0.0, 4.0, -1.0, -2.0, -1.0])
    state = GridState.initial(mism).with_desired(np.zeros(5))
    flows = flow_control(
        state, star, metropolis_weight_matrix(star), fixed_capacities(state)
    ).flows
    tree_gap = max(tree_gap, float(np.max(np.abs(flows + mism[1:]))))

    ok = worst_err <= 1e-6 and worst_net <= 1e-12 and tree_gap <= 1e-8
    line = _verdict(
        4, ok,
        f"1000 balanced instances: max residual error {worst_err:.2e} (<= 1e-6), "
        f"max net-inflow total {worst_net:.2e} (<= 1e-12), "
        f"tree-anchor gap {tree_gap:.2e} (<= 1e-8)",
    )
    assert ok, line


def test_criterion_5_with_coordination_run():
    config = load_config(default_config_path("with"))
    start = time.perf_counter()
    record = run(config)
    elapsed = time.perf_counter() - start
    flows_zero = bool(np.all(record.p_F_net == 0.0))
    ok = (
        record.horizon == 50
        and record.all_audits_passed
        and flows_zero
        and record.max_abs_error <= 1e-6
        and elapsed < 5.0
    )
    line = _verdict(
        5, ok,
        f"50 steps with coordination: audits {'all passed' if record.all_audits_passed else 'FAILED'}, "
        f"flows {'identically zero' if flows_zero else 'NONZERO'}, "
        f"max |error| {record.max_abs_error:.2e}, {elapsed:.2f} s (< 5 s)",
    )
    assert ok, line


def test_criterion_6_without_coordination_run():
    config = load_config(default_config_path("without"))
    caps = config.capacities
    start = time.perf_counter()
    record = run(config)
    elapsed = time.perf_counter() - start
    # the regime only gets interesting when some target exceeds what its
    # own generator may produce
    violating_steps = int(np.sum(np.any(
        (record.p_d < caps.gen_lo - 1e-12) | (record.p_d > caps.gen_hi + 1e-12),
        axis=1,
    )))
    gen_in_bounds = bool(
        np.all(record.p_G >= caps.gen_lo - 1e-8) and np.all(record.p_G <= caps.gen_hi + 1e-8)
    )
    ok = (
        record.horizon == 50
        and violating_steps >= 1
        and record.max_abs_error <= 1e-6
        and gen_in_bounds
        and elapsed < 5.0
    )
    line = _verdict(
        6, ok,
        f"50 steps without coordination: {violating_steps} steps with "
        f"bound-exceeding targets (>= 1), max |error| {record.max_abs_error:.2e} "
        f"(<= 1e-6), generation bounds {'held' if gen_in_bounds else 'VIOLATED'}, "
        f"{elapsed:.2f} s (< 5 s)",
    )
    assert ok, line


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(2029)
    worst_stochastic = 0.0
    worst_sum_drift = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        topology = random_connected_topology(n, rng)
        q = degree_weight_matrix(topology)
        s = metropolis_weight_matrix(topology)
        q_dense, s_dense = q.toarray(), s.toarray()
        worst_stochastic = max(
            worst_stochastic,
            float(np.max(np.abs(q_dense.sum(axis=0) - 1.0))),
            float(np.max(np.abs(s_dense.sum(axis=0) - 1.0))),
            float(np.max(np.abs(s_dense.sum(axis=1) - 1.0))),
        )
        x_q = rng.uniform(-10.0, 10.0, n)
        x_s = x_q.copy()
        target_q, target_s = x_q.sum(), x_s.sum()
        for _ in range(30):
            x_q = q @ x_q
            x_s = s @ x_s
            worst_sum_drift = max(
                worst_sum_drift,
                abs(float(x_q.sum()) - target_q),
                abs(float(x_s.sum()) - target_s),
            )

    caps = make_reference_caps()
    topology = build_topology(6, RING_CHORD_EDGES)
    criteria = ConvergenceCriteria(eps=1e-11)  # certifies the 1e-8 target
    worst_leader = 0.0
    for p_D in (85.0, 150.0, 203.0, 330.0):
        splits = np.array([
            coordinate_distributed(p_D, caps, topology, leader=lead, criteria=criteria).desired
            for lead in range(1, 7)
        ])
        worst_leader = max(
            worst_leader, float(np.max(splits.max(axis=0) - splits.min(axis=0)))
        )
    ok = worst_stochastic <= 1e-12 and worst_sum_drift <= 1e-9 and worst_leader <= 1e-8
    line = _verdict(
        7, ok,
        f"100 graphs: max stochasticity defect {worst_stochastic:.2e} (<= 1e-12), "
        f"max per-round sum drift {worst_sum_drift:.2e} (<= 1e-9), "
        f"max leader-choice deviation {worst_leader:.2e} (<= 1e-8)",
    )
    assert ok, line


def test_criterion_8_byte_identical_exports(tmp_path):
    mismatches = []
    for mode in ("with", "without"):
        config = replace(load_config(default_config_path(mode)), horizon=12)
        first, _ = export_record(run(config), tmp_path / mode / "a")
        second, _ = export_record(run(config), tmp_path / mode / "b")
        if first.read_bytes() != second.read_bytes():
            mismatches.append(mode)
    ok = not mismatches
    line = _verdict(
        8, ok,
        "repeated 12-step runs of both shipped scenarios exported byte-identical CSVs"
        if ok else f"exports differ for: {', '.join(mismatches)}",
    )
    assert ok, line
