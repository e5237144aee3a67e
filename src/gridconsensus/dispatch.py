"""Per-step generation adjustment and pairwise flow control.

Two regimes are supported. With coordination, every node's desired net
power is already feasible for its generator, so generation simply tracks
it and no power moves between nodes. Without coordination, generation
control balances the aggregate (each node's target may exceed its own
generator) and a second consensus stage accumulates pairwise flows that
cancel the per-node mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .consensus import ConvergenceCriteria, flow_accumulate, ratio_consensus
from .coordination import NodeCapacities
from .errors import BalanceError, BoundViolationError, InfeasibleStepError
from .graph import (
    GridTopology,
    SparseWeights,
    degree_weight_matrix,
    metropolis_edge_weights,
    metropolis_weight_matrix,
)


def _as_vector(a, n: int, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    return out


@dataclass(frozen=True)
class DeltaBounds:
    """Allowed change in each node's generation for the current step."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("delta bounds must be 1-D arrays of equal length")
        inverted = ~(self.lo <= self.hi)  # so that a NaN bound fails it
        if inverted.any():
            bad = int(np.argmax(inverted)) + 1
            raise ValueError(f"delta bounds inverted or NaN at node {bad}")

    @property
    def range(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass(frozen=True)
class GridState:
    """Snapshot of the grid after step ``k``.

    ``p`` is generation plus net inflow; ``p_e`` is the gap between net
    power and the desired net power. Flows cancel pairwise, so the totals
    of ``p`` and ``p_G`` always agree.
    """

    p_G: np.ndarray
    p_d: np.ndarray
    p_F_net: np.ndarray
    k: int

    def __post_init__(self):
        n = len(np.atleast_1d(self.p_G))  # a 0-d p_G fails the shape check
        for name in ("p_G", "p_d", "p_F_net"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        if self.k < 0:
            raise ValueError(f"step index must be nonnegative, got {self.k}")

    @property
    def n(self) -> int:
        return self.p_G.shape[0]

    @property
    def p(self) -> np.ndarray:
        return self.p_G + self.p_F_net

    @property
    def p_e(self) -> np.ndarray:
        return self.p - self.p_d

    @classmethod
    def initial(cls, p_G0) -> GridState:
        """Step-0 state: no flows, targets equal to current output."""
        p_G0 = np.asarray(p_G0, dtype=float)
        return cls(p_G=p_G0.copy(), p_d=p_G0.copy(), p_F_net=np.zeros_like(p_G0), k=0)

    def with_desired(self, desired) -> GridState:
        """Same physical state, new per-node targets."""
        desired = _as_vector(desired, self.n, "desired")
        return replace(self, p_d=desired.copy())

    def after_generation(self, delta) -> GridState:
        """Provisional state once generation moved but flows are pending."""
        delta = _as_vector(delta, self.n, "delta")
        return replace(self, p_G=self.p_G + delta, p_F_net=np.zeros(self.n))


@dataclass(frozen=True)
class GenerationResult:
    """Per-node generation change and the consensus rounds spent on it."""

    delta: np.ndarray
    iters: int = 0


@dataclass(frozen=True)
class FlowControlResult:
    """One signed flow per edge of ``topology.edges`` plus rounds. A
    positive flow on edge (i, j), i < j, is power node i sends to node j."""

    flows: np.ndarray
    iters: int


def compute_delta_bounds(state: GridState, caps: NodeCapacities) -> DeltaBounds:
    """Headroom of each generator relative to its current output."""
    return DeltaBounds(lo=caps.gen_lo - state.p_G, hi=caps.gen_hi - state.p_G)


def _generation_slack(caps: NodeCapacities, criteria: ConvergenceCriteria) -> np.ndarray:
    """Per node: a split whose ratios are certified within eps crosses a
    generation bound by at most eps times the node's range."""
    return criteria.tolerance(caps.gen_range, np.abs(caps.gen_lo) + np.abs(caps.gen_hi), caps.n)


def _balance_tolerance(
    state: GridState, caps: NodeCapacities, criteria: ConvergenceCriteria
) -> float:
    """How far sum(p_G) may miss sum(p_d) after generation control: every
    ratio within eps moves the total by at most eps times the total range."""
    return criteria.tolerance(
        float(np.sum(caps.gen_range)),
        float(np.sum(np.abs(state.p_G) + np.abs(state.p_d))),
        state.n,
    )


def generation_with_coordination(
    state: GridState, desired, caps: NodeCapacities,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> np.ndarray:
    """Move each generator straight to its coordinated target.

    Valid only when every target respects its node's generation bounds,
    which coordination guarantees; flows stay zero in this regime. The
    bound check grants the targets the same slack for consensus residue
    that audits grant committed states.
    """
    desired = _as_vector(desired, state.n, "desired")
    slack = _generation_slack(caps, criteria)
    low = desired < caps.gen_lo - slack
    high = desired > caps.gen_hi + slack
    if np.any(low | high):
        i = int(np.nonzero(low | high)[0][0])
        raise BoundViolationError(
            f"node {i + 1}: desired net power {desired[i]} outside generation "
            f"bounds [{caps.gen_lo[i]}, {caps.gen_hi[i]}]"
        )
    return desired - state.p_G


def _require_feasible(
    p_D: float, state: GridState, db: DeltaBounds
) -> tuple[float, float, float]:
    """Check that reaching total p_D fits the summed delta bounds (up to
    rounding); return the needed change and the two bound sums."""
    needed = p_D - float(np.sum(state.p_G))
    lo_sum = float(np.sum(db.lo))
    hi_sum = float(np.sum(db.hi))
    magnitude = float(np.sum(np.abs(state.p_G) + np.abs(db.lo) + np.abs(db.hi)))
    # width 0: no consensus result enters, so no eps does either
    tol = ConvergenceCriteria().tolerance(0.0, abs(p_D) + magnitude, state.n)
    if not lo_sum - tol <= needed <= hi_sum + tol:  # so that a NaN fails it
        raise InfeasibleStepError(
            f"required generation change {needed} outside feasible "
            f"interval [{lo_sum}, {hi_sum}]"
        )
    return needed, lo_sum, hi_sum


def generation_closed_form(p_D: float, state: GridState, db: DeltaBounds) -> np.ndarray:
    """Split the aggregate generation shortfall proportionally to headroom.

    Each node takes its minimum allowed change plus a share of what is
    left, proportional to the width of its allowed-change interval. The
    changes then sum exactly to the shortfall and respect the bounds.
    """
    needed, lo_sum, hi_sum = _require_feasible(p_D, state, db)
    total_range = hi_sum - lo_sum
    if total_range <= 0.0:
        # All headroom intervals are points; feasibility already pinned
        # needed to their sum, so the forced move is the answer.
        return db.lo.copy()
    return db.lo + db.range * ((needed - lo_sum) / total_range)


def generation_distributed(
    desired,
    state: GridState,
    db: DeltaBounds,
    topology: GridTopology,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> GenerationResult:
    """Same split as the closed form, but no node sees the global sums.

    Ratio consensus over the topology: numerators start at each node's
    target minus its current output minus its minimum change, denominators
    at its headroom width. The common ratio times the local width, offset
    by the minimum change, reproduces the closed-form allocation.
    """
    desired = _as_vector(desired, state.n, "desired")
    if topology.n != state.n:
        raise ValueError(f"topology has {topology.n} nodes, state has {state.n}")
    _require_feasible(float(np.sum(desired)), state, db)
    if float(np.sum(db.range)) <= 0.0:
        return GenerationResult(delta=db.lo.copy(), iters=0)

    z0 = desired - state.p_G - db.lo
    result = ratio_consensus(degree_weight_matrix(topology), z0, db.range, criteria)
    return GenerationResult(delta=db.lo + db.range * result.values, iters=result.iters)


def flow_control(
    state_after_gen: GridState,
    topology: GridTopology,
    weights: SparseWeights,
    caps: NodeCapacities,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> FlowControlResult:
    """Find per-edge flows that cancel each node's remaining mismatch.

    The mismatch vector (generation minus target) averages to zero when
    generation control balanced the totals, so diffusing it to agreement
    drives every entry to zero; the flow rounds carry the edge accumulator,
    whose negation is the flow, and read the mismatch through the net
    inflow ``apply_step`` books, so the certified mismatch is the one the
    flows leave. Entry e of the result, for edge (i, j) =
    ``topology.edges[e]``, is the power i sends to j.

    Raises BalanceError when the mismatch total exceeds what generation
    control certified to eps can leave over ``caps``: flows only move power
    around, they cannot create it.
    """
    mismatch = state_after_gen.p_G - state_after_gen.p_d
    total = float(np.sum(mismatch))
    budget = _balance_tolerance(state_after_gen, caps, criteria)
    if not abs(total) <= budget:
        raise BalanceError(
            f"aggregate mismatch {total} exceeds {budget:.3g}; generation "
            "control must balance totals before flow control can cancel "
            "per-node errors"
        )
    acc = flow_accumulate(topology, weights, mismatch, criteria)
    return FlowControlResult(flows=-acc.h, iters=acc.iters)


def flow_closed_form(mismatch, topology: GridTopology) -> np.ndarray:
    """The per-edge flows that flow control converges to, solved directly.

    Flow control's accumulator settles at h_e = a_e (G_j - G_i) for edge
    e = (i, j), where a are the Metropolis edge weights and the potentials
    G solve L G = mismatch for the weighted Laplacian L = I - S. The flows
    -h are therefore the electrical flow with conductances a: the one
    flow that cancels a balanced mismatch with least sum of f_e^2 / a_e.
    On a tree it is the only cancelling flow, the subtree sum of the
    mismatch across each edge. Node 1 is grounded (G_1 = 0) and the
    reduced system is solved densely, O(n^3): an oracle, not an engine.
    Same format as ``flow_control(...).flows``.
    """
    n = topology.n
    mismatch = _as_vector(mismatch, n, "mismatch")
    laplacian = np.eye(n) - metropolis_weight_matrix(topology).toarray()
    potential = np.zeros(n)
    potential[1:] = np.linalg.solve(laplacian[1:, 1:], mismatch[1:])
    heads, tails = topology.edge_index_arrays()
    return metropolis_edge_weights(topology) * (potential[heads] - potential[tails])


def apply_step(state: GridState, delta, flows, topology: GridTopology) -> GridState:
    """Advance one physical step: shift generation, book the flows.

    ``flows`` holds one value per edge of ``topology.edges``; a positive
    value on edge (i, j) moves power from i to j. A node's net inflow,
    ``topology.incident_sums(flows, -flows)``, adds the flows on its edges
    to lower-numbered neighbors, then subtracts those on its edges to
    higher-numbered ones, each group in increasing neighbor order: the
    same sum, in the same order, from which flow control read the node
    values it certified.
    """
    delta = _as_vector(delta, state.n, "delta")
    flows = _as_vector(flows, len(topology.edge_array), "flows")
    return GridState(p_G=state.p_G + delta, p_d=state.p_d.copy(),
                     p_F_net=topology.incident_sums(flows, -flows), k=state.k + 1)


@dataclass(frozen=True)
class StepAudit:
    """Constraint checks for one committed step.

    ``margins`` maps each check's name to how far the step sits inside
    that check's bound, in the check's own units (for the bounds, the
    worst node's distance). A check fails when its margin is negative or
    NaN.
    """

    step: int
    max_abs_error: float
    balance_residual: float
    margins: dict[str, float]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [name for name, margin in self.margins.items() if not margin >= 0.0]


def _bound_margin(v: np.ndarray, lo: np.ndarray, hi: np.ndarray, slack) -> float:
    """Smallest distance of any entry of v inside its slack-widened box."""
    inside = np.minimum(v - (lo - slack), (hi + slack) - v)
    return float(inside.min(initial=np.inf))


def audit_state(
    state: GridState, caps: NodeCapacities,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> StepAudit:
    """Check a committed state against capacities and balance targets.

    Each check grants what consensus certified to ``criteria.eps`` can
    leave (``ConvergenceCriteria.tolerance``): generation eps * range past
    its bounds, its total eps * sum(range) past the demand, and each
    node's error eps * (1 + sum(range) / n), since flow control spreads
    that total and stops with every node within eps of the mean. Net
    power grants the larger of the first and last; conservation (flows
    cancel in the total) is rounding alone.
    """
    n = state.n
    p, abs_err = state.p, np.abs(state.p_e)
    flow_width = 1.0 + float(np.sum(caps.gen_range)) / n
    residual = float(np.sum(state.p_G) - np.sum(state.p_d))
    conservation = abs(float(np.sum(p) - np.sum(state.p_G)))
    net_slack = criteria.tolerance(
        np.maximum(caps.gen_range, flow_width), np.abs(caps.net_lo) + np.abs(caps.net_hi), n
    )
    err_tol = criteria.tolerance(flow_width, np.abs(p) + np.abs(state.p_d), n)
    return StepAudit(
        step=state.k,
        max_abs_error=float(np.max(abs_err, initial=0.0)),
        balance_residual=residual,
        margins={
            "generation bounds": _bound_margin(
                state.p_G, caps.gen_lo, caps.gen_hi, _generation_slack(caps, criteria)
            ),
            "net-power bounds": _bound_margin(p, caps.net_lo, caps.net_hi, net_slack),
            "flow conservation": criteria.tolerance(
                0.0, float(np.sum(np.abs(state.p_G) + np.abs(p))), n
            ) - conservation,
            "supply-demand balance": _balance_tolerance(state, caps, criteria) - abs(residual),
            "error annihilation": float(np.min(err_tol - abs_err, initial=np.inf)),
        },
    )
