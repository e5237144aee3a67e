"""Consensus kernel: linear rounds, ratio consensus, flow accumulator.

The numeric claims here either follow from hand-iterated small cases
(two-node and path-3 flow examples), from conservation identities, or from
comparing against the initial-sum oracle that the iterations provably
approach.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridconsensus import (
    DENOMINATOR_FLOOR,
    ConfigError,
    ConvergenceCriteria,
    ConvergenceError,
    FlowAccumulator,
    GridState,
    SparseWeights,
    build_topology,
    default_config_path,
    degree_weight_matrix,
    flow_accumulate,
    flow_closed_form,
    flow_control,
    load_config,
    metropolis_edge_weights,
    metropolis_weight_matrix,
    ratio_consensus,
    run,
)
import gridconsensus.consensus as consensus_mod
from gridconsensus.graph import _chebyshev_mu
from conftest import path_topology as path
from conftest import degrees, fixed_capacities, predicted_rounds, tree_topology
from conftest import plain_flow_accumulate, plain_ratio_consensus, random_connected_topology

CRIT = ConvergenceCriteria()


def _values_at_cap(engine, weights, x0, y0, criteria):
    """The ratios ``engine`` (``ratio_consensus`` or
    ``plain_ratio_consensus``) returns, or raises with at its cap."""
    try:
        return engine(weights, x0, y0, criteria).values
    except ConvergenceError as exc:
        return exc.values


def _flow_at_cap(run, cap):
    """The node values ``run(criteria)`` returns, or raises with, under a
    cap of ``cap`` rounds."""
    try:
        return run(ConvergenceCriteria(max_iters=cap)).g
    except ConvergenceError as exc:
        return exc.values


@pytest.fixture
def one_round_blocks(monkeypatch):
    """Blocks of one round, so that every product ``RecordingWeights`` logs
    is a round the call kept: in longer blocks the rounds after the one
    that decides are computed and discarded. It is the same code path."""
    monkeypatch.setattr(consensus_mod, "_BLOCK", 1)


class RecordingWeights(SparseWeights):
    """The same weights and interval, logging each operand's sum and
    the matrix it went through: "W" in a plain round, "P" in a Chebyshev
    round, which applies ``shifted()``. Each column of a stacked operand
    is logged as an operand of its own, so the ratio engine's (n, 2) array
    logs x, then y. Every operand is a current iterate of the engine;
    ``shifts`` counts the calls that built or fetched P."""

    __slots__ = ("log", "kind", "shifts")

    def __init__(self, weights: SparseWeights, log=None, kind="W"):
        super().__init__(weights.storage, weights.data, weights.stationary, weights.interval)
        self.log = [] if log is None else log
        self.kind = kind
        self.shifts = 0

    def __matmul__(self, v):
        for column in (v.T if v.ndim == 2 else (v,)):
            self.log.append((self.kind, float(column.sum())))
        return super().__matmul__(v)

    def shifted(self):
        self.shifts += 1
        return RecordingWeights(super().shifted(), self.log, "P")

    def plain_rounds(self) -> int:
        """Rounds of W the ratio engine ran: two operands each, the
        columns x and y of its stacked product."""
        return sum(kind == "W" for kind, _ in self.log) // 2


def test_criteria_validation():
    with pytest.raises(ValueError):
        ConvergenceCriteria(eps=0.0)
    with pytest.raises(ValueError):
        ConvergenceCriteria(eps=-1e-9)
    # a bool is no number, as it is no integer for max_iters; a string or
    # None fails with a ValueError, not a TypeError from the range check;
    # an integer past the float range fails here, not as an OverflowError
    # in tolerance()
    for bad in (float("inf"), float("nan"), True, "1e-10", None, 1e-10j, 10**400,
                Fraction(10**400)):
        with pytest.raises(ConfigError, match="^eps: must be a positive finite number") as info:
            ConvergenceCriteria(eps=bad)
        assert info.value.field == "eps"
    # eps is kept as a float, whatever real number it came as
    for eps in (np.float64(1e-9), Fraction(1, 10**9)):
        criteria = ConvergenceCriteria(eps=eps)
        assert type(criteria.eps) is float and criteria.eps == 1e-9
    with pytest.raises(ValueError):
        ConvergenceCriteria(max_iters=0)
    # range() would reject these only at the first run, with a TypeError
    for bad in (2.5, True):
        with pytest.raises(ConfigError, match="^max_iters: must be an integer >= 1") as info:
            ConvergenceCriteria(max_iters=bad)
        assert info.value.field == "max_iters"


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
        with pytest.raises(ValueError, match="one positive"):
            ratio_consensus(q, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], CRIT)

    def test_negative_denominator_rejected(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ValueError):
            ratio_consensus(q, [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], CRIT)

    def test_operand_length_must_match_weights(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ValueError):
            ratio_consensus(q, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0], CRIT)

    @pytest.mark.usefixtures("one_round_blocks")
    def test_sparse_rounds_match_dense_reference(self):
        # The reference runs plain rounds of the dense matrix alone. Until
        # its switch the engine runs the same plain rounds, adding each row
        # in a different order, so values agree to float dust and a stop
        # before the switch may move by one round. Rounds after the switch
        # are the Chebyshev phase's, tested separately.
        rng = np.random.default_rng(29)
        switched = 0
        for _ in range(50):
            n = int(rng.integers(1, 31))
            topo = random_connected_topology(n, rng)
            q = RecordingWeights(degree_weight_matrix(topo))
            x0 = rng.uniform(-5, 5, n)
            y0 = rng.uniform(0.1, 4.0, n)
            sparse = ratio_consensus(q, x0, y0, CRIT)
            dense = plain_ratio_consensus(q.toarray(), x0, y0, CRIT)
            switch = q.plain_rounds()
            if switch == sparse.iters:  # plain rounds alone
                assert q.shifts == 0
                assert abs(sparse.iters - dense.iters) <= 1
                assert np.max(np.abs(sparse.values - dense.values)) <= 1e-12
                continue
            # the iterates of the switch round itself: the engine and the
            # reference run to a cap of that many rounds, where they raise
            # with their values
            switched += 1
            assert dense.iters > switch
            capped = ConvergenceCriteria(max_iters=switch)
            sparse_k = _values_at_cap(ratio_consensus, degree_weight_matrix(topo), x0, y0, capped)
            dense_k = _values_at_cap(plain_ratio_consensus, q.toarray(), x0, y0, capped)
            assert np.max(np.abs(sparse_k - dense_k)) <= 1e-12
        assert 0 < switched < 50

    def test_round_cap_raises(self, path3):
        q = degree_weight_matrix(path3)
        with pytest.raises(ConvergenceError) as info:
            ratio_consensus(q, [6.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                            ConvergenceCriteria(eps=1e-14, max_iters=3))
        assert info.value.iters == 3
        assert info.value.values.shape == (3,)


class TestChebyshevPhase:
    """Rounds after the switch, where plain rounds end."""

    @pytest.mark.usefixtures("one_round_blocks")
    def test_switch_round_follows_the_bound(self):
        # mu = (1 - c) / ((hi - lo) / 2) and c = (lo + hi) / 2. Lanczos
        # measures the exact spectrum of path-3, {1, 1/2, -1/6}: the
        # eigenvectors (1, 0, -1) and (2, -3, 2) of S = D^-1/2 W D^1/2 give
        # the two below 1. Then c = 1/6 and mu = (5/6) / (1/3) = 5/2.
        q = degree_weight_matrix(path(3))
        assert q.interval == pytest.approx((-1.0 / 6.0, 0.5), abs=1e-12)
        assert q.shift == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert _chebyshev_mu(q.interval) == pytest.approx(2.5)
        # The switch comes at the first round t where
        # spread_t cosh((t - 1) acosh mu) > 2 spread_1, replayed here with
        # the same rounds of W; no earlier round and no later one.
        for topo in (path(3), path(40)):
            w = degree_weight_matrix(topo)
            q = RecordingWeights(w)
            x, y = np.linspace(0.0, 1.0, topo.n), np.ones(topo.n)
            res = ratio_consensus(q, x, y, CRIT)
            rate = math.acosh(_chebyshev_mu(w.interval))
            spreads = []
            while not spreads or spreads[-1] * math.cosh((len(spreads) - 1) * rate) \
                    <= 2.0 * spreads[0]:
                x, y = w @ x, w @ y
                spreads.append(np.ptp(x / y))
                assert spreads[-1] > CRIT.eps
            assert q.plain_rounds() == len(spreads) < res.iters

    @pytest.mark.usefixtures("one_round_blocks")
    def test_sums_preserved_and_ratios_certified(self):
        rng = np.random.default_rng(37)
        ring12 = build_topology(12, [(i, i % 12 + 1) for i in range(1, 13)])
        for topo in (path(40), path(61), ring12):
            n = topo.n
            q = RecordingWeights(degree_weight_matrix(topo))
            x0 = rng.uniform(-5.0, 5.0, n)
            y0 = rng.uniform(0.1, 4.0, n)
            res = ratio_consensus(q, x0, y0, CRIT)
            assert q.plain_rounds() < res.iters and q.shifts == 1
            truth = x0.sum() / y0.sum()
            assert np.max(np.abs(res.values - truth)) <= CRIT.eps
            # the operands, of W and then of P, alternate x_t and y_t for
            # t = 0 .. iters - 1
            assert len(q.log) == 2 * res.iters
            assert [kind for kind, _ in q.log] == \
                ["W"] * (2 * q.plain_rounds()) + ["P"] * (2 * (res.iters - q.plain_rounds()))
            sums = [total for _, total in q.log]
            x_sums, y_sums = np.array(sums[0::2]), np.array(sums[1::2])
            assert np.max(np.abs(x_sums - x0.sum())) <= 1e-9 * (1.0 + abs(x0.sum()))
            assert np.max(np.abs(y_sums - y0.sum())) <= 1e-9 * y0.sum()

    @pytest.mark.usefixtures("one_round_blocks")
    def test_at_most_about_k_rounds_more_than_the_switch(self):
        # the bound's predicted rounds shrink a unit spread to eps
        q = RecordingWeights(degree_weight_matrix(path(40)))
        x0 = np.linspace(0.0, 1.0, 40)
        y0 = np.ones(40)
        fast = ratio_consensus(q, x0, y0, CRIT)
        plain = plain_ratio_consensus(q.toarray(), x0, y0, CRIT)
        switch = q.plain_rounds()
        assert switch < fast.iters <= switch + predicted_rounds(q.interval, CRIT.eps) \
            < plain.iters
        assert np.max(np.abs(fast.values - plain.values)) <= 2 * CRIT.eps

    @pytest.mark.usefixtures("one_round_blocks")
    def test_path_switches_before_k_and_stops_sooner(self):
        # On a path plain rounds fall behind the bound long before round
        # K = ``predicted_rounds`` of the interval. Plain rounds up to K,
        # then Chebyshev rounds, would take 979 ratio and 1054 flow rounds
        # on these inputs.
        topo = path(40)
        q = RecordingWeights(degree_weight_matrix(topo))
        k = predicted_rounds(q.interval, CRIT.eps)
        res = ratio_consensus(q, np.linspace(0.0, 1.0, 40), np.ones(40), CRIT)
        assert q.plain_rounds() < k
        assert res.iters < 979

        s = metropolis_weight_matrix(topo)
        g0 = np.linspace(-1.0, 1.0, 40)
        acc = flow_accumulate(topo, s, g0, CRIT)
        assert acc.iters < 1054
        # by round K the call has left the plain rounds of the reference
        at_k = _flow_at_cap(lambda capped: flow_accumulate(topo, s, g0, capped), k)
        plain_k = _flow_at_cap(lambda capped: plain_flow_accumulate(topo, g0, capped), k)
        assert np.max(np.abs(at_k - plain_k)) > 1e-6

    @pytest.mark.usefixtures("one_round_blocks")
    def test_well_mixed_graph_never_switches(self):
        # plain rounds beat the bound of the wide interval [-1, 0.999] here,
        # so a call on that interval runs them alone: the reference engine's
        # rounds, and P is never built
        rng = np.random.default_rng(71)
        topo = random_connected_topology(40, rng, 0.3)
        wide = [w.with_interval((-1.0, 0.999))
                for w in (degree_weight_matrix(topo), metropolis_weight_matrix(topo))]
        q = RecordingWeights(wide[0])
        x0 = rng.uniform(-5.0, 5.0, 40)
        y0 = rng.uniform(0.1, 4.0, 40)
        res = ratio_consensus(q, x0, y0, CRIT)
        dense = plain_ratio_consensus(q.toarray(), x0, y0, CRIT)
        assert q.shifts == 0 and q.plain_rounds() == res.iters == dense.iters
        assert np.max(np.abs(res.values - dense.values)) <= 1e-12

        s = RecordingWeights(wide[1])
        g0 = rng.uniform(-8.0, 8.0, 40)
        acc = flow_accumulate(topo, s, g0, CRIT)
        ref = plain_flow_accumulate(topo, g0, CRIT)
        assert s.shifts == 0 and acc.iters == ref.iters
        assert np.max(np.abs(acc.h - ref.h)) <= 1e-12
        assert np.max(np.abs(acc.g - ref.g)) <= 1e-12

        # the measured interval is nearly exact, and Chebyshev rounds on it
        # beat plain ones here too: both calls switch and stop sooner
        fast = ratio_consensus(degree_weight_matrix(topo), x0, y0, CRIT)
        assert fast.iters < res.iters
        assert np.max(np.abs(fast.values - x0.sum() / y0.sum())) <= CRIT.eps
        fast = flow_accumulate(topo, metropolis_weight_matrix(topo), g0, CRIT)
        assert fast.iters < acc.iters
        assert np.max(np.abs(fast.h - acc.h)) <= 40 * CRIT.eps

    def test_tiny_eps_runs_to_the_cap(self, fallbacks):
        # no spread gets down to these, and the smallest positive float is
        # subnormal: the rounds run to the cap without an overflow, which
        # would fail the suite as a warning
        topo = path(40)
        for eps in (1e-300, 5e-324):
            capped = ConvergenceCriteria(eps=eps, max_iters=3000)
            with pytest.raises(ConvergenceError) as info:
                ratio_consensus(degree_weight_matrix(topo), np.linspace(0.0, 1.0, 40),
                                np.ones(40), capped)
            assert info.value.iters == 3000
            # Flow rounds read their node values from the flows, so the
            # spread stalls at the rounding of that read: where the watch
            # trips, the call stops within the floor instead of widening
            # (456 rounds, spread 6.1e-14 against a floor of 1.2e-13).
            fallbacks.clear()
            g0 = np.linspace(-1.0, 1.0, 40)
            acc = flow_accumulate(topo, metropolis_weight_matrix(topo), g0, capped)
            h = np.abs(acc.h)
            floor = capped.tolerance(0.0, 2.0 * np.max(np.abs(g0) + topo.incident_sums(h, h)),
                                     int(degrees(topo).max()) + 1)
            assert fallbacks == [] and acc.iters < 3000
            assert 0.0 < np.ptp(acc.g) <= eps + floor

    @pytest.mark.parametrize("n", [40, 60, 200, 400])
    def test_flow_stall_stops_within_the_floor(self, fallbacks, n):
        # Where h stalls, an increment a_e (g_j - g_i) rounds away in h_e,
        # so the spread stays above the rounding of the sum g reads. The
        # floor counts that stall too, 6u sum_e |h_e|/a_e (flow_accumulate),
        # and the call stops at the watch's first trip. A hi pinned a few
        # ulps either side of the measured one moves where the rounds
        # stall. With a floor of the read alone, some call widened on each
        # path here, and path-400 on its own interval widened four times and
        # ran to the cap.
        topo = path(n)
        w = metropolis_weight_matrix(topo)
        a = metropolis_edge_weights(topo)
        lo, hi = w.interval
        capped = ConvergenceCriteria(eps=1e-300, max_iters=20_000)
        g0 = np.linspace(-1.0, 1.0, n)
        for ulps in range(-4, 5) if n < 400 else (0,):
            pinned = w.with_interval((lo, hi + ulps * math.ulp(hi)))
            acc = flow_accumulate(topo, pinned, g0, capped)
            h = np.abs(acc.h)
            floor = capped.tolerance(0.0, 2.0 * np.max(np.abs(g0) + topo.incident_sums(h, h)),
                                     int(degrees(topo).max()) + 1)
            floor += 6.0 * (np.finfo(float).eps / 2.0) * np.sum(h / a)
            assert fallbacks == [], (n, ulps)
            assert 0.0 < np.ptp(acc.g) <= capped.eps + floor

    def test_flow_floor_reads_the_round_it_stops_at(self, monkeypatch):
        # A block's rounds run past the one that decides: the floor a stop
        # is judged by must be that round's, not the block's last.
        read = []
        rounds = consensus_mod._rounds

        def spied(*args):
            *head, floor = args
            return rounds(*head, lambda h: read.append(h) or floor(h))

        monkeypatch.setattr(consensus_mod, "_rounds", spied)
        topo = path(40)
        acc = flow_accumulate(topo, metropolis_weight_matrix(topo), np.cos(np.arange(40.0)),
                              ConvergenceCriteria(eps=1e-300, max_iters=5000))
        assert read and read[-1] is acc.h

    def test_plain_rounds_keep_pace_past_the_range_of_cosh(self):
        # On path-3, x0 = (1, 0, -1) sums to zero and is an eigenvector of
        # the Metropolis weights (eigenvalue 2/3), whose stationary vector
        # is all ones: with y0 = ones the ratios are x, and plain rounds
        # shrink their spread by 2/3 a round, to 1e-320 near round 1820. A
        # bound with acosh(mu) = 0.395 shrinks it by e^-0.395 < 2/3 a round:
        # plain rounds keep pace past round 1800, where cosh(0.395 t) passes
        # the largest float, and run alone to the stop.
        topo = path(3)
        s = metropolis_weight_matrix(topo)
        mu = np.cosh(0.395)
        gap = 2.0 * (mu - 1.0) / (mu + 1.0)
        loose = s.with_interval((-1.0, 1.0 - gap))
        tiny = ConvergenceCriteria(eps=1e-320)
        res = ratio_consensus(loose, [1.0, 0.0, -1.0], np.ones(3), tiny)
        assert 1800 < res.iters < predicted_rounds(loose.interval, tiny.eps)
        assert np.ptp(res.values) <= tiny.eps

    def test_flow_sums_and_telescoping_hold(self):
        rng = np.random.default_rng(41)
        topo = path(50)
        s = metropolis_weight_matrix(topo)
        g0 = rng.uniform(-8.0, 8.0, 50)
        g0 -= g0.mean()
        acc = flow_accumulate(topo, s, g0, CRIT)
        assert acc.iters > predicted_rounds(s.interval, CRIT.eps)
        heads, tails = topo.edge_index_arrays()
        inflow = np.bincount(np.concatenate((heads, tails)),
                             weights=np.concatenate((acc.h, -acc.h)), minlength=50)
        assert np.max(np.abs(acc.g - (g0 + inflow))) <= 1e-9
        assert np.max(np.abs(acc.g)) <= CRIT.eps
        # on a path edge (i, i + 1) carries everything nodes 1..i hold
        assert np.max(np.abs(-acc.h - np.cumsum(g0)[:-1])) <= 50 * CRIT.eps

    def test_chebyshev_flow_rounds_beat_the_plain_reference(self):
        # flow rounds take the gap from their weights, like ratio rounds,
        # and switch to Chebyshev rounds: they stop within a few times the
        # bound's rounds, where the plain reference needs more, at the same
        # flows
        topo = path(40)
        s = metropolis_weight_matrix(topo)
        g0 = np.linspace(-1.0, 1.0, 40)
        fast = flow_accumulate(topo, s, g0, CRIT)
        plain = plain_flow_accumulate(topo, g0, CRIT)
        assert fast.iters <= 2 * predicted_rounds(s.interval, CRIT.eps) < plain.iters
        assert np.max(np.abs(fast.h - plain.h)) <= 40 * CRIT.eps

    def test_flows_stop_at_the_first_certified_round(self):
        # The spread alone stops flow rounds, before the switch and after
        # it: a Chebyshev round's change mixes in the round before it and
        # certifies nothing about h, and a plain round's change adds
        # nothing to what the spread certifies.
        rng = np.random.default_rng(43)
        topo = build_topology(12, [(i, i % 12 + 1) for i in range(1, 13)])
        s = metropolis_weight_matrix(topo)
        for _ in range(2):
            g0 = rng.uniform(-8.0, 8.0, 12)
            g0 -= g0.mean()
            acc = flow_accumulate(topo, s, g0, CRIT)
            # sooner than plain rounds alone: Chebyshev rounds ran
            assert acc.iters < plain_flow_accumulate(topo, g0, CRIT).iters
            assert np.ptp(acc.g) <= CRIT.eps
            # every round before the stop, plain or Chebyshev, was still
            # uncertified
            for cap in range(1, acc.iters):
                with pytest.raises(ConvergenceError) as info:
                    flow_accumulate(topo, s, g0, ConvergenceCriteria(max_iters=cap))
                assert np.ptp(info.value.values) > CRIT.eps

    @pytest.mark.usefixtures("one_round_blocks")
    def test_round_cap_raises_with_its_fields(self):
        # an interval [-1, 0] claims far more than a 60-node path has, so
        # plain rounds fall behind its bound after two rounds, and a cap of
        # 50 rounds falls past them
        q = degree_weight_matrix(path(60))
        loose = RecordingWeights(q.with_interval((-1.0, 0.0)))
        capped = ConvergenceCriteria(max_iters=50)
        with pytest.raises(ConvergenceError) as info:
            ratio_consensus(loose, np.arange(60.0), np.ones(60), capped)
        assert info.value.iters == 50 and loose.plain_rounds() == 2
        assert info.value.values.shape == (60,)
        # after 50 rounds no mass from node 1 has reached node 60, whose
        # denominator is 0: the spread is never defined, the rounds stay
        # plain, and the call raises at the cap with the ratios of its last
        # round, nan exactly where the plain rounds' denominators are at or
        # below the floor
        y0 = np.zeros(60)
        y0[0] = 1.0
        with pytest.raises(ConvergenceError) as info:
            ratio_consensus(loose, np.ones(60), y0, capped)
        y = np.linalg.matrix_power(q.toarray(), 50) @ y0
        collapsed = y <= DENOMINATOR_FLOOR
        assert info.value.iters == 50 and collapsed[-1] and not collapsed[0]
        assert np.array_equal(np.isnan(info.value.values), collapsed)
        assert str(info.value).endswith("59, 60]")

        # ten rounds short of the stop a flow call on path-60 has left the
        # plain rounds of the reference: the cap falls in the Chebyshev phase
        topo = path(60)
        s = metropolis_weight_matrix(topo)
        g0 = np.linspace(-1.0, 1.0, 60)
        cap = flow_accumulate(topo, s, g0, CRIT).iters - 10
        plain = _flow_at_cap(lambda capped: plain_flow_accumulate(topo, g0, capped), cap)
        with pytest.raises(ConvergenceError) as info:
            flow_accumulate(topo, s, g0, ConvergenceCriteria(max_iters=cap))
        assert info.value.iters == cap
        assert info.value.values.shape == (60,)
        assert np.max(np.abs(info.value.values - plain)) > 1e-6


@pytest.fixture
def fallbacks(monkeypatch):
    """The weights each fallback widened, in call order."""
    widened = []
    fallback = SparseWeights.fallback
    monkeypatch.setattr(SparseWeights, "fallback",
                        lambda self: widened.append(self) or fallback(self))
    return widened


class TestMeasuredInterval:
    """Chebyshev rounds on the interval Lanczos measured, and the fallback
    to a wider interval when that one is wrong.

    The literals quoted as Mohar's are the rounds the fallback this one
    replaced took on the same inputs: plain and then Chebyshev rounds on
    Mohar's interval [-1, 1 - 4/(n D (1 + d_max))], D a diameter bound."""

    def test_too_narrow_interval_converges_through_the_fallback(self, fallbacks):
        # The pinned interval claims four times the true gap 1 - lambda_2,
        # so the slowest mode lies outside it, where Chebyshev rounds do not
        # damp it. The spread falls behind the interval's bound, and the call
        # goes on from its current values on [-1, 1 - (1 - hi)/4], whose top
        # is the measured one again. It still meets the oracle, within the
        # rounds of a call on that interval alone, plus twice the rounds
        # ``predicted_rounds`` gives the narrow interval (for the plain
        # rounds and the Chebyshev rounds before the spread falls behind),
        # plus the rounds the wide interval's bound needs to take off the
        # factor 2 sqrt(n) by which the spread may exceed its first value
        # before the widening. Mohar's took 553 ratio and 563 flow rounds.
        rng = np.random.default_rng(83)
        topo = path(40)
        x0 = rng.uniform(-5.0, 5.0, 40)
        y0 = rng.uniform(0.1, 4.0, 40)
        g0 = rng.uniform(-8.0, 8.0, 40)
        oracle = plain_flow_accumulate(topo, g0, CRIT)
        for build, call, check, mohar in (
            (degree_weight_matrix, lambda w: ratio_consensus(w, x0, y0, CRIT),
             lambda res: np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps, 553),
            (metropolis_weight_matrix, lambda w: flow_accumulate(topo, w, g0, CRIT),
             lambda res: np.max(np.abs(res.h - oracle.h)) <= 40 * CRIT.eps, 563),
        ):
            weights = build(topo)
            lo, hi = weights.interval
            narrow = weights.with_interval((lo, 1.0 - 4.0 * (1.0 - hi)))
            fallbacks.clear()
            res = call(narrow)
            assert fallbacks == [narrow] and check(res)
            wide = narrow.fallback()
            assert wide.interval == (-1.0, pytest.approx(hi, abs=1e-15))
            wide_mu = _chebyshev_mu(wide.interval)
            bound = (call(wide).iters + 2 * predicted_rounds(narrow.interval, CRIT.eps)
                     + np.ceil(np.log(2.0 * np.sqrt(40)) / np.arccosh(wide_mu)))
            assert res.iters <= bound and res.iters < mohar
            # on the measured interval the fallback never fires
            fallbacks.clear()
            assert call(weights).iters < res.iters and fallbacks == []

    @pytest.mark.usefixtures("one_round_blocks")
    def test_no_plain_round_follows_a_fallback(self, monkeypatch):
        # On the too narrow interval above the Chebyshev rounds fall behind
        # once and go on from the current arrays on the wider interval:
        # every round after the fallback is a round of P. (Both engines run
        # the same rounds; the ratio engine's are the ones RecordingWeights
        # logs.)
        rng = np.random.default_rng(83)
        x0 = rng.uniform(-5.0, 5.0, 40)
        y0 = rng.uniform(0.1, 4.0, 40)
        weights = degree_weight_matrix(path(40))
        lo, hi = weights.interval
        q = RecordingWeights(weights.with_interval((lo, 1.0 - 4.0 * (1.0 - hi))))
        marks = []
        fallback = SparseWeights.fallback
        monkeypatch.setattr(SparseWeights, "fallback", lambda self: marks.append(len(q.log))
                            or RecordingWeights(fallback(self), q.log))
        res = ratio_consensus(q, x0, y0, CRIT)
        assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps
        assert len(marks) == 1 and len(q.log) == 2 * res.iters
        after = [kind for kind, _ in q.log[marks[0]:]]
        assert after and set(after) == {"P"}

    def test_shipped_scenarios_never_fall_back(self, fallbacks):
        # every call of both shipped 50-step scenarios keeps to the
        # interval Lanczos measured
        for mode in ("with", "without"):
            record = run(load_config(default_config_path(mode)))
            assert record.horizon == 50 and record.all_audits_passed
        assert fallbacks == []

    def test_widening_from_a_point_ends_cleanly(self, fallbacks):
        # The point (0, 0) claims that every mode but the consensus one
        # dies in one round. On path-300 Chebyshev rounds on it fall behind
        # at once, and the call widens again and again, hi running 0, 3/4,
        # 15/16, ..., until its interval holds the spectrum. Each call still
        # meets its oracle within the default cap, where Mohar's took 4 674
        # ratio and 4 892 flow rounds; a call capped short of that raises
        # ConvergenceError with its rounds and values, not a ValueError
        # from an interval reaching 1.
        topo = path(300)
        rng = np.random.default_rng(97)
        x0 = rng.uniform(-5.0, 5.0, 300)
        y0 = rng.uniform(0.1, 4.0, 300)
        g0 = rng.uniform(-8.0, 8.0, 300)
        oracle = flow_closed_form(g0 - g0.mean(), topo)
        q, s = (w.with_interval((0.0, 0.0))
                for w in (degree_weight_matrix(topo), metropolis_weight_matrix(topo)))
        res = ratio_consensus(q, x0, y0, CRIT)
        assert len(fallbacks) > 2 and res.iters < 4674
        assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps
        fallbacks.clear()
        acc = flow_accumulate(topo, s, g0, CRIT)
        assert len(fallbacks) > 2 and acc.iters < 4892
        assert np.max(np.abs(-acc.h - oracle)) <= 300 * CRIT.eps

        capped = ConvergenceCriteria(max_iters=1000)
        for run in (lambda: ratio_consensus(q, x0, y0, capped),
                    lambda: flow_accumulate(topo, s, g0, capped)):
            with pytest.raises(ConvergenceError) as info:
                run()
            assert info.value.iters == 1000
            assert info.value.values.shape == (300,)
            assert np.all(np.isfinite(info.value.values))

    def test_a_missed_eigenvalue_costs_rounds_not_the_result(self, fallbacks):
        # A seeded sweep (random graphs and trees, 41 <= n < 150, seeds 0 to
        # 399, one call per engine) found three calls whose fallback fires on
        # the measured interval, none in both engines: the ratio call on the
        # 127-node tree of seed 170, and the flow calls on the trees of seeds
        # 7 and 319. Lanczos from its one start vector settles on a Ritz value
        # short of lambda_2: hi = 0.99756 against 0.99900 (degree weights,
        # seed 170) and 0.99807 against 0.99932 (Metropolis, 143-node tree of
        # seed 7). Mohar's took 1 440 ratio and 1 231 flow rounds on these
        # inputs.
        def tree_case(seed):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(41, 150))
            topo = tree_topology("tree", n, rng)
            x0 = rng.uniform(-5.0, 5.0, n)
            y0 = rng.uniform(0.1, 4.0, n)
            g0 = rng.uniform(-8.0, 8.0, n)
            return n, topo, x0, y0, g0

        _, ratio_topo, x0, y0, _ = tree_case(170)
        q = degree_weight_matrix(ratio_topo)
        n, flow_topo, _, _, g0 = tree_case(7)
        s = metropolis_weight_matrix(flow_topo)
        for w in (q, s):
            assert np.sort(np.linalg.eigvals(w.toarray()).real)[-2] > w.interval[1] + 4e-4
        res = ratio_consensus(q, x0, y0, CRIT)
        assert fallbacks == [q] and res.iters < 1440
        assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps
        fallbacks.clear()
        acc = flow_accumulate(flow_topo, s, g0, CRIT)
        assert fallbacks == [s] and acc.iters < 1231
        oracle = flow_closed_form(g0 - g0.mean(), flow_topo)
        assert np.max(np.abs(-acc.h - oracle)) <= n * CRIT.eps

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_point_spectra_stay_finite(self, n):
        # A single node has no eigenvalue but 1, and its interval is the
        # point 0; two nodes and the complete graph K5 have one more, 0, in
        # both weight matrices, so Lanczos measures that one-point interval.
        # The floored half-width keeps mu finite there and on an interval
        # pinned to the point exactly, so the bound predicts few rounds.
        topo = build_topology(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        rng = np.random.default_rng(89 + n)
        x0 = rng.uniform(-5.0, 5.0, n)
        y0 = rng.uniform(0.1, 4.0, n)
        g0 = rng.uniform(-8.0, 8.0, n)
        q, s = degree_weight_matrix(topo), metropolis_weight_matrix(topo)
        assert q.interval == pytest.approx((0.0, 0.0), abs=1e-12)
        assert s.interval == pytest.approx((0.0, 0.0), abs=1e-12)
        point = [w.with_interval((0.0, 0.0)) for w in (q, s)]
        for w in (q, s, *point):
            mu = _chebyshev_mu(w.interval)
            assert 1 <= predicted_rounds(w.interval, CRIT.eps) < 100 and 1.0 < mu < np.inf
        truth = x0.sum() / y0.sum()
        oracle = flow_closed_form(g0 - g0.mean(), topo)
        # a tiny eps forces Chebyshev rounds after the first plain one, and
        # on to the cap: the values stay finite and at the limit
        tiny = ConvergenceCriteria(eps=1e-300, max_iters=30)
        for ratio_weights, flow_weights in ((q, s), point):
            res = ratio_consensus(ratio_weights, x0, y0, CRIT)
            assert res.iters == 1 and np.max(np.abs(res.values - truth)) <= CRIT.eps
            acc = flow_accumulate(topo, flow_weights, g0, CRIT)
            assert acc.iters == 1 and np.ptp(acc.g) <= CRIT.eps
            assert np.max(np.abs(-acc.h - oracle), initial=0.0) <= n * CRIT.eps
            for run, limit in ((lambda: ratio_consensus(ratio_weights, x0, y0, tiny).values,
                                truth),
                               (lambda: flow_accumulate(topo, flow_weights, g0, tiny).g,
                                g0.mean())):
                try:
                    values = run()  # one node: the first round is exact
                except ConvergenceError as exc:
                    values = exc.values
                assert np.max(np.abs(values - limit)) <= 1e-12


class TestFlowAccumulate:
    def test_zero_input_stays_zero(self, path3):
        s = metropolis_weight_matrix(path3)
        acc = flow_accumulate(path3, s, np.zeros(3), CRIT)
        assert np.all(acc.h == 0.0) and np.all(acc.g == 0.0)
        assert acc.iters == 1

    def test_two_node_hand_iteration(self):
        # edge weight 1/2; one round moves both values to exactly 0 and
        # books h[(1,2)] = 1/2 * (-5 - 5) = -5, so the spread stops it there
        topo = build_topology(2, [(1, 2)])
        s = metropolis_weight_matrix(topo)
        acc = flow_accumulate(topo, s, [5.0, -5.0], CRIT)
        assert acc.iters == 1
        assert np.all(acc.g == 0.0)
        assert acc.h.shape == (1,)
        assert acc.h[0] == pytest.approx(-5.0, abs=1e-12)

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


@pytest.mark.parametrize("argument", ["x0", "y0", "g0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_engines_refuse_non_finite_inputs(monkeypatch, argument, bad):
    # no round removes a nan or an infinity, so each engine refuses one
    # before its first round, naming the argument, where it once ran to the
    # round cap
    monkeypatch.setattr(consensus_mod, "_rounds", lambda *args: pytest.fail("a round ran"))
    topo = path(4)
    inputs = {"x0": [1.0, 2.0, 3.0, 4.0], "y0": [1.0, 1.0, 2.0, 1.0], "g0": [3.0, 0.0, -1.0, -2.0]}
    inputs[argument][2] = bad
    with pytest.raises(ValueError, match=f"^{argument} entries must be finite$"):
        if argument == "g0":
            flow_accumulate(topo, metropolis_weight_matrix(topo), inputs["g0"], CRIT)
        else:
            ratio_consensus(degree_weight_matrix(topo), inputs["x0"], inputs["y0"], CRIT)


def test_engines_refuse_dense_weights():
    # SparseWeights carry the interval the rounds read, and no other
    # weights are taken: a dense array is refused by both engines, and by
    # flow control, which hands its weights on
    topo = path(4)
    q, s = degree_weight_matrix(topo).toarray(), metropolis_weight_matrix(topo).toarray()
    state = GridState.initial([3.0, 0.0, -1.0, 2.0]).with_desired([1.0, 1.0, 1.0, 1.0])
    for call in (lambda: ratio_consensus(q, [1.0, 2.0, 3.0, 4.0], np.ones(4), CRIT),
                 lambda: flow_accumulate(topo, s, [3.0, 0.0, -1.0, -2.0], CRIT),
                 lambda: flow_control(state, topo, s, fixed_capacities(state), CRIT)):
        with pytest.raises(TypeError, match="^weights must be SparseWeights, got ndarray$"):
            call()


def _topology(kind: str, n: int, rng: np.random.Generator):
    if kind == "random":
        return random_connected_topology(n, rng, float(rng.uniform(0.0, 0.3)))
    return tree_topology(kind, n, rng)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("random", "path", "tree")),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_engines_meet_their_oracles(kind, n, seed):
    # Both stopping certificates, over whichever phase each call ends in:
    # ratios within eps of sum(x0)/sum(y0), and flows within n * eps of the
    # electrical flow (see TestFlowClosedForm for that bound).
    rng = np.random.default_rng(seed)
    topo = _topology(kind, n, rng)
    x0 = rng.uniform(-5.0, 5.0, n)
    y0 = rng.uniform(0.1, 4.0, n)
    res = ratio_consensus(degree_weight_matrix(topo), x0, y0, CRIT)
    assert np.max(np.abs(res.values - x0.sum() / y0.sum())) <= CRIT.eps

    p_d = rng.uniform(-10.0, 10.0, n)
    noise = rng.uniform(-5.0, 5.0, n)
    state = GridState.initial(p_d + noise - noise.mean()).with_desired(p_d)
    flows = flow_control(
        state, topo, metropolis_weight_matrix(topo), fixed_capacities(state), CRIT
    ).flows
    oracle = flow_closed_form(state.p_G - state.p_d, topo)
    assert np.max(np.abs(flows - oracle), initial=0.0) <= n * CRIT.eps


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("random", "path", "tree")),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_engines_agree_with_their_plain_references(kind, n, seed):
    # Each stop certifies every node within eps of the same limit, the
    # mean the sums keep, whichever phase the engine stops in and however
    # many rounds the plain reference takes: node values agree within
    # 2 eps, ratios and flow node values alike.
    rng = np.random.default_rng(seed)
    topo = _topology(kind, n, rng)
    x0 = rng.uniform(-5.0, 5.0, n)
    y0 = rng.uniform(0.1, 4.0, n)
    g0 = rng.uniform(-8.0, 8.0, n)
    q = degree_weight_matrix(topo)
    res = ratio_consensus(q, x0, y0, CRIT)
    ref = plain_ratio_consensus(q.toarray(), x0, y0, CRIT)
    assert np.max(np.abs(res.values - ref.values)) <= 2 * CRIT.eps
    acc = flow_accumulate(topo, metropolis_weight_matrix(topo), g0, CRIT)
    plain = plain_flow_accumulate(topo, g0, CRIT)
    assert np.max(np.abs(acc.g - plain.g)) <= 2 * CRIT.eps


def _outcome(call):
    """What a call gave: its rounds and the bytes of its values, or the
    message of the ConvergenceError it raised, with its rounds and values."""
    try:
        res = call()
    except ConvergenceError as exc:
        return str(exc), exc.iters, exc.values.tobytes()
    if isinstance(res, FlowAccumulator):
        return res.iters, res.h.tobytes(), res.g.tobytes()
    return res.iters, res.values.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("random", "path", "tree")),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from((1e-6, 1e-10, 1e-14, 1e-300)) | st.floats(1e-300, 1e-3),
    pin=st.sampled_from(("measured", "narrow", "point")),
    cap=st.integers(1, 400),
    low=st.lists(st.sampled_from((0.0, 0.5 * DENOMINATOR_FLOOR, DENOMINATOR_FLOOR)),
                 max_size=3),
    leader=st.booleans(),
)
def test_blocks_of_one_round_change_nothing(kind, n, seed, eps, pin, cap, low, leader):
    # Rounds run in blocks, checked after each, and the rounds past the one
    # that decides are discarded: every call returns the rounds, values and
    # errors it does with blocks of one round. Intervals pinned too narrow
    # make the watch fall behind and widen, a cap anywhere cuts a block
    # short, a tiny eps runs to the flows' floor, and denominators at or
    # below the floor leave ratios undefined for the first rounds; with
    # one node's y0 positive alone, as in coordination, until y reaches
    # every node.
    rng = np.random.default_rng(seed)
    topo = _topology(kind, n, rng)
    x0 = rng.uniform(-5.0, 5.0, n)
    y0 = rng.uniform(0.1, 4.0, n)
    if leader:
        y0[1:] = 0.0
    y0[rng.permutation(n)[:min(len(low), n - 1)]] = low[:n - 1]
    if not y0.any():
        y0[0] = 1.0
    g0 = rng.uniform(-8.0, 8.0, n)
    q, s = degree_weight_matrix(topo), metropolis_weight_matrix(topo)
    if pin != "measured":
        def pinned(w):
            lo, hi = w.interval
            return w.with_interval((0.0, 0.0) if pin == "point"
                                   else (lo, max(lo, 1.0 - 4.0 * (1.0 - hi))))
        q, s = pinned(q), pinned(s)
    criteria = ConvergenceCriteria(eps=eps, max_iters=cap)
    calls = (lambda: ratio_consensus(q, x0, y0, criteria),
             lambda: flow_accumulate(topo, s, g0, criteria))
    blocked = [_outcome(call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus_mod, "_BLOCK", 1)
        assert [_outcome(call) for call in calls] == blocked
