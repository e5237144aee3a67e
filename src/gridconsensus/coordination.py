"""Splitting total demand into per-node desired net power.

Each node's share of the demand surplus above the aggregate generation
floor is proportional to its generation range. The closed form needs the
global capacity sums; the distributed version reaches the same split with
ratio consensus, where only the leading node knows the total demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .consensus import ConvergenceCriteria, _finite_reals, ratio_consensus
from .errors import CapacityError, ConvergenceError, NotRealizableError
from .graph import GridTopology, degree_weight_matrix


def _not_a_bound(name: str, i: int, value, what: str):
    raise CapacityError(f"node {i + 1}: {name} {value!r} is not {what}")


@dataclass(frozen=True)
class NodeCapacities:
    """Per-node generation bounds and net-power bounds.

    Validates that every bound is a finite real number (a bool or a string
    is none), gen_lo <= gen_hi, net_lo <= net_hi, and that each node's
    generation interval sits inside its net-power interval.
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
            except TypeError:  # a bare number, or no sequence to read twice
                raise CapacityError(f"{name} must be a 1-D array, got {value!r}") from None
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


def check_realizability(p_demand: float, caps: NodeCapacities) -> RealizabilityReport:
    """Demand is realizable iff it lies between the sums of the lower and
    upper generation bounds (inclusive on both ends)."""
    lower = caps.total_gen_lo
    upper = caps.total_gen_hi
    p_demand = float(p_demand)
    return RealizabilityReport(
        realizable=bool(lower <= p_demand <= upper),
        demand=p_demand,
        lower=lower,
        upper=upper,
    )


def _require_realizable(p_demand: float, caps: NodeCapacities) -> RealizabilityReport:
    report = check_realizability(p_demand, caps)
    if not report:
        raise NotRealizableError(
            f"demand {p_demand} outside [{report.lower}, {report.upper}] "
            f"(margins: {report.lower_margin}, {report.upper_margin})",
            report=report,
        )
    return report


def _all_fixed_floors(caps: NodeCapacities) -> np.ndarray | None:
    """The floors when every generator is fixed (zero total range), or
    None when there is a range to split demand over.

    Zero total range means gen_lo == gen_hi at every node, so a realizable
    demand equals the aggregate floor exactly; the floors are then the
    only answer.
    """
    if float(np.sum(caps.gen_range)) > 0.0:
        return None
    return caps.gen_lo.copy()


def coordinate_closed_form(p_demand: float, caps: NodeCapacities) -> CoordinationResult:
    """Split demand using global capacity sums.

    Each node receives its generation floor plus a share of the remaining
    demand proportional to its generation range, which keeps every node
    inside its generation bounds and makes the shares sum to the demand.
    When every generator is fixed, the floors are the only answer.
    """
    _require_realizable(p_demand, caps)
    desired = _all_fixed_floors(caps)
    if desired is None:
        surplus = p_demand - caps.total_gen_lo
        desired = caps.gen_lo + caps.gen_range * (surplus / float(np.sum(caps.gen_range)))
    return CoordinationResult(desired=desired)


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
    if type(leader) is not int or not 1 <= leader <= topology.n:  # bool subclasses int
        raise ValueError(f"leader must be an integer in 1..{topology.n}, got {leader!r}")
    _require_realizable(p_demand, caps)
    # Nothing to negotiate when every generator is fixed: consensus cannot
    # run on a zero denominator, but the all-floors profile still answers.
    floors = _all_fixed_floors(caps)
    if floors is not None:
        return CoordinationResult(desired=floors)

    x0 = -caps.gen_lo.copy()
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
