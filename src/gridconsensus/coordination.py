"""Splitting total demand into per-node desired net power.

Each node gets its generation floor plus a share of the demand surplus
above the aggregate floor, in proportion to its generation range: the one
split, ``_split``, that generation control also applies to headroom. The
closed form needs the global capacity sums; the distributed version reaches
the same split with ratio consensus, where only the leading node knows the
total demand. With every generator fixed, both return the floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .consensus import ConvergenceCriteria, _finite_reals, ratio_consensus
from .errors import CapacityError, ConfigError, ConvergenceError, NotRealizableError
from .graph import GridTopology, _is_integer, degree_weight_matrix


def _not_a_bound(name: str, i: int, value, what: str):
    raise CapacityError(f"node {i + 1}: {name} {value!r} is not {what}")


@dataclass(frozen=True)
class NodeCapacities:
    """Per-node generation bounds and net-power bounds.

    Validates that every bound is a finite real number (no bool or string),
    gen_lo <= gen_hi, net_lo <= net_hi, and that each node's generation
    interval sits inside its net-power interval; keeps read-only copies.
    """

    gen_lo: np.ndarray
    gen_hi: np.ndarray
    net_lo: np.ndarray
    net_hi: np.ndarray

    def __post_init__(self):
        names = ("gen_lo", "gen_hi", "net_lo", "net_hi")
        for name in names:
            value = getattr(self, name)
            try:
                bounds = _finite_reals(value, partial(_not_a_bound, name))
            except TypeError:  # no list of numbers
                raise CapacityError(f"{name} must be a 1-D array, got {value!r}") from None
            bounds.setflags(write=False)
            object.__setattr__(self, name, bounds)
        shapes = {getattr(self, f).shape for f in names}  # 1-D, as each entry is a number
        if len(shapes) != 1:
            raise CapacityError(f"capacity arrays must share one 1-D shape, got {shapes}")
        gen_inverted = self.gen_lo > self.gen_hi
        net_inverted = self.net_lo > self.net_hi
        uncontained = (self.gen_lo < self.net_lo) | (self.gen_hi > self.net_hi)
        bad = gen_inverted | net_inverted | uncontained
        if bad.any():
            # the first bad node, and its first failing check
            i = int(bad.argmax())
            gen = f"[{self.gen_lo[i]}, {self.gen_hi[i]}]"
            net = f"[{self.net_lo[i]}, {self.net_hi[i]}]"
            if gen_inverted[i]:
                raise CapacityError(f"node {i + 1}: generation bounds {gen} inverted")
            if net_inverted[i]:
                raise CapacityError(f"node {i + 1}: net-power bounds {net} inverted")
            raise CapacityError(
                f"node {i + 1}: generation interval {gen} not contained in net-power interval {net}"
            )

    @property
    def n(self) -> int:
        return self.gen_lo.shape[0]

    @property
    def gen_range(self) -> np.ndarray:
        return self.gen_hi - self.gen_lo

    @property
    def total_gen_lo(self) -> float:
        return float(np.sum(self.gen_lo))

    @property
    def total_gen_hi(self) -> float:
        return float(np.sum(self.gen_hi))


@dataclass(frozen=True)
class RealizabilityReport:
    """Outcome of the demand-vs-capacity check, with both margins."""

    realizable: bool
    demand: float
    lower: float
    upper: float

    @property
    def lower_margin(self) -> float:
        """How far demand sits above the aggregate generation floor."""
        return self.demand - self.lower

    @property
    def upper_margin(self) -> float:
        """How far demand sits below the aggregate generation ceiling."""
        return self.upper - self.demand

    def __bool__(self) -> bool:
        return self.realizable


@dataclass(frozen=True)
class CoordinationResult:
    """Per-node desired net power, and the consensus rounds it took."""

    desired: np.ndarray
    iters: int = 0


def _not_a_demand(_, value, what: str):
    raise ConfigError(f"must be {what}, got {value!r}", field="demand")


def check_realizability(p_demand: float, caps: NodeCapacities) -> RealizabilityReport:
    """Demand is realizable iff it lies between the sums of the lower and
    upper generation bounds (inclusive on both ends). Raises ConfigError
    (field "demand") for a demand that is not a finite real number: a bool,
    a string, None, nan or an infinity."""
    (p_demand,) = _finite_reals([p_demand], _not_a_demand).tolist()
    lower, upper = caps.total_gen_lo, caps.total_gen_hi
    return RealizabilityReport(bool(lower <= p_demand <= upper), p_demand, lower, upper)


def _require_realizable(p_demand: float, caps: NodeCapacities) -> RealizabilityReport:
    report = check_realizability(p_demand, caps)
    if not report:
        raise NotRealizableError(
            f"demand {report.demand} outside [{report.lower}, {report.upper}] "
            f"(margins: {report.lower_margin}, {report.upper_margin})",
            report=report,
        )
    return report


def _split(lo: np.ndarray, width: np.ndarray, total: float) -> np.ndarray:
    """Each floor ``lo`` plus a share of ``total``'s surplus over the summed
    floors in proportion to its ``width``; with no width, the floors."""
    span = float(np.sum(width))
    if span <= 0.0:
        return lo.copy()
    return lo + width * ((total - float(np.sum(lo))) / span)


def coordinate_closed_form(p_demand: float, caps: NodeCapacities) -> CoordinationResult:
    """Split demand over the generation ranges, using global capacity sums;
    the shares stay inside the generation bounds and sum to the demand."""
    p_demand = _require_realizable(p_demand, caps).demand
    return CoordinationResult(desired=_split(caps.gen_lo, caps.gen_range, p_demand))


def coordinate_distributed(
    p_demand: float,
    caps: NodeCapacities,
    topology: GridTopology,
    leader: int = 1,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> CoordinationResult:
    """Split demand knowing the total only at the leading node.

    Runs ratio consensus: the numerator starts at demand minus the local
    generation floor on the leader and at minus the floor elsewhere; the
    denominator starts at each node's generation range. Every node's ratio
    converges to the global surplus over the total range, so applying it to
    the local range reproduces the closed-form split. Ratios within eps put
    the total within eps * sum(range) of the demand; a total further off
    raises ConvergenceError.
    """
    if caps.n != topology.n:
        raise CapacityError(f"capacities for {caps.n} nodes, topology has {topology.n}")
    if not _is_integer(leader):
        raise ConfigError(f"must be an integer, got {leader!r}", field="leader")
    if not 1 <= leader <= topology.n:
        raise ConfigError(f"{leader} outside 1..{topology.n}", field="leader")
    p_demand = _require_realizable(p_demand, caps).demand
    # Nothing to negotiate when every generator is fixed: consensus cannot
    # run on a zero denominator, but the floors still answer.
    if float(np.sum(caps.gen_range)) <= 0.0:
        return CoordinationResult(desired=caps.gen_lo.copy())

    x0 = -caps.gen_lo
    x0[leader - 1] += p_demand
    y0 = caps.gen_range
    weights = degree_weight_matrix(topology)
    result = ratio_consensus(weights, x0, y0, criteria)
    desired = caps.gen_lo + caps.gen_range * result.values
    total = float(np.sum(desired))
    budget = criteria.tolerance(
        float(np.sum(caps.gen_range)),
        float(np.sum(np.abs(caps.gen_lo) + np.abs(caps.gen_hi))) + abs(p_demand),
        caps.n,
    )
    if abs(total - p_demand) > budget:
        raise ConvergenceError(
            f"coordinated total {total} misses demand {p_demand}",
            values=desired,
            iters=result.iters,
        )
    return CoordinationResult(desired=desired, iters=result.iters)
