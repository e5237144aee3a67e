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
from .graph import GridTopology, SparseWeights, degree_weight_matrix

_FEAS_TOL = 1e-9
# A distributed split stopped at tolerance eps can cross a bound by up to
# range*eps: 1e-8 for the default eps and the capacity scales in use.
_BOUND_SLACK = 1e-8
# Largest mismatch a step may leave: in the total that flow control is
# handed, and at each node of a committed state.
_MISMATCH_TOL = 1e-6


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
        if np.any(self.lo > self.hi):
            bad = int(np.argmax(self.lo > self.hi)) + 1
            raise ValueError(f"delta bounds inverted at node {bad}")

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
    p: np.ndarray
    p_d: np.ndarray
    p_F_net: np.ndarray
    p_e: np.ndarray
    k: int

    def __post_init__(self):
        n = np.asarray(self.p_G, dtype=float).shape[0]
        for name in ("p_G", "p", "p_d", "p_F_net", "p_e"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        if self.k < 0:
            raise ValueError(f"step index must be nonnegative, got {self.k}")

    @property
    def n(self) -> int:
        return self.p_G.shape[0]

    @classmethod
    def initial(cls, p_G0) -> GridState:
        """Step-0 state: no flows, targets equal to current output."""
        p_G0 = np.asarray(p_G0, dtype=float)
        zero = np.zeros_like(p_G0)
        return cls(p_G=p_G0.copy(), p=p_G0.copy(), p_d=p_G0.copy(),
                   p_F_net=zero.copy(), p_e=zero.copy(), k=0)

    def with_desired(self, desired) -> GridState:
        """Same physical state, new per-node targets."""
        desired = _as_vector(desired, self.n, "desired")
        return replace(self, p_d=desired.copy(), p_e=self.p - desired)

    def after_generation(self, delta) -> GridState:
        """Provisional state once generation moved but flows are pending."""
        delta = _as_vector(delta, self.n, "delta")
        p_G = self.p_G + delta
        return replace(self, p_G=p_G, p=p_G.copy(),
                       p_F_net=np.zeros(self.n), p_e=p_G - self.p_d)


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


def generation_with_coordination(
    state: GridState, desired, caps: NodeCapacities
) -> np.ndarray:
    """Move each generator straight to its coordinated target.

    Valid only when every target respects its node's generation bounds,
    which coordination guarantees; flows stay zero in this regime. The
    bound check grants the targets the same ``_BOUND_SLACK`` for consensus
    residue that audits grant committed states.
    """
    desired = _as_vector(desired, state.n, "desired")
    low = desired < caps.gen_lo - _BOUND_SLACK
    high = desired > caps.gen_hi + _BOUND_SLACK
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
    float dust); return the needed change and the two bound sums."""
    needed = p_D - float(np.sum(state.p_G))
    lo_sum = float(np.sum(db.lo))
    hi_sum = float(np.sum(db.hi))
    tol = _FEAS_TOL * (1.0 + abs(p_D) + abs(lo_sum) + abs(hi_sum))
    if needed < lo_sum - tol or needed > hi_sum + tol:
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
    weights: SparseWeights | np.ndarray,
    criteria: ConvergenceCriteria = ConvergenceCriteria(),
) -> FlowControlResult:
    """Find per-edge flows that cancel each node's remaining mismatch.

    The mismatch vector (generation minus target) averages to zero when
    generation control balanced the totals, so diffusing it to agreement
    drives every entry to zero; the edge accumulator integrated along the
    way, negated, is exactly the flow needed. Entry e of the result, for
    edge (i, j) = ``topology.edges[e]``, is the power i sends to j.

    Raises BalanceError when the mismatch total is not (near) zero: flows
    only move power around, they cannot create it.
    """
    mismatch = state_after_gen.p_G - state_after_gen.p_d
    total = float(np.sum(mismatch))
    if abs(total) > _MISMATCH_TOL:
        raise BalanceError(
            f"aggregate mismatch {total} exceeds {_MISMATCH_TOL}; generation "
            "control must balance totals before flow control can cancel "
            "per-node errors"
        )
    acc = flow_accumulate(topology, weights, mismatch, criteria)
    return FlowControlResult(flows=-acc.h, iters=acc.iters)


def apply_step(state: GridState, delta, flows, topology: GridTopology) -> GridState:
    """Advance one physical step: shift generation, book the flows.

    ``flows`` holds one value per edge of ``topology.edges``; a positive
    value on edge (i, j) moves power from i to j. A node's net inflow adds
    the flows on its edges to lower-numbered neighbors, then subtracts
    those on its edges to higher-numbered ones, each group in increasing
    neighbor order.
    """
    n = state.n
    delta = _as_vector(delta, n, "delta")
    heads, tails = topology.edge_index_arrays()
    flows = _as_vector(flows, heads.shape[0], "flows")

    p_G = state.p_G + delta
    p_F_net = np.bincount(
        np.concatenate((tails, heads)),
        weights=np.concatenate((flows, -flows)),
        minlength=n,
    )
    p = p_G + p_F_net
    return GridState(
        p_G=p_G,
        p=p,
        p_d=state.p_d.copy(),
        p_F_net=p_F_net,
        p_e=p - state.p_d,
        k=state.k + 1,
    )


@dataclass(frozen=True)
class StepAudit:
    """Constraint checks for one committed step."""

    step: int
    gen_bounds_ok: bool
    net_bounds_ok: bool
    conservation_ok: bool
    balance_ok: bool
    error_ok: bool
    max_abs_error: float
    balance_residual: float

    @property
    def passed(self) -> bool:
        return (self.gen_bounds_ok and self.net_bounds_ok and self.conservation_ok
                and self.balance_ok and self.error_ok)

    def failures(self) -> list[str]:
        out = []
        if not self.gen_bounds_ok:
            out.append("generation bounds")
        if not self.net_bounds_ok:
            out.append("net-power bounds")
        if not self.conservation_ok:
            out.append("flow conservation")
        if not self.balance_ok:
            out.append("supply-demand balance")
        if not self.error_ok:
            out.append("error annihilation")
        return out


def audit_state(state: GridState, caps: NodeCapacities) -> StepAudit:
    """Check a committed state against capacities and balance targets.

    Bounds get ``_BOUND_SLACK`` because the distributed allocations agree
    with the exact ones only to consensus accuracy; balance is relative to
    the demand scale, conservation (flows canceling in the total) is a
    float-dust check.
    """
    gen_ok = bool(
        np.all(state.p_G >= caps.gen_lo - _BOUND_SLACK)
        and np.all(state.p_G <= caps.gen_hi + _BOUND_SLACK)
    )
    net_ok = bool(
        np.all(state.p >= caps.net_lo - _BOUND_SLACK)
        and np.all(state.p <= caps.net_hi + _BOUND_SLACK)
    )
    total_d = float(np.sum(state.p_d))
    residual = float(np.sum(state.p_G) - total_d)
    conservation = abs(float(np.sum(state.p) - np.sum(state.p_G)))
    max_err = float(np.max(np.abs(state.p_e), initial=0.0))
    return StepAudit(
        step=state.k,
        gen_bounds_ok=gen_ok,
        net_bounds_ok=net_ok,
        conservation_ok=conservation <= 1e-9,
        balance_ok=abs(residual) <= 1e-8 * (1.0 + abs(total_d)),
        error_ok=max_err <= _MISMATCH_TOL,
        max_abs_error=max_err,
        balance_residual=residual,
    )
