"""Synchronous-round linear consensus iterations.

Two engines, both operating on per-node value arrays:

* ``ratio_consensus`` — two coupled sum-preserving iterations whose
  per-node ratio converges to sum(x0)/sum(y0).
* ``flow_accumulate`` — Metropolis-weighted averaging that additionally
  integrates the disagreement across each edge into a per-edge
  accumulator; its steady state supplies the power flows.

All rounds are synchronous: every node updates from the previous round's
values. Nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDenominatorError
from .graph import GridTopology, SparseWeights, metropolis_edge_weights

# Denominators below this are treated as collapsed rather than divided by.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceCriteria:
    """Stopping rule: max per-node change per round vs. a round cap."""

    eps: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class ConsensusResult:
    """Per-node values at termination, rounds executed, and whether the
    stopping tolerance was met (False means the round cap was hit)."""

    values: np.ndarray
    iters: int
    converged: bool


@dataclass(frozen=True)
class FlowAccumulator:
    """Per-edge accumulator h, aligned with ``topology.edges``, and node
    values g at termination of the flow iteration, plus rounds executed."""

    h: np.ndarray
    g: np.ndarray
    iters: int


def ratio_consensus(
    weights: SparseWeights | np.ndarray, x0, y0, criteria: ConvergenceCriteria
) -> ConsensusResult:
    """Run x and y through the same sum-preserving iteration and return the
    per-node ratios x_i/y_i, which all converge to sum(x0)/sum(y0).

    One round is ``weights @ x`` and ``weights @ y``: on ``SparseWeights``
    each node reads only its neighbors, O(n + m) per round; a dense n x n
    array gives the plain dense iteration, which tests keep as the
    reference. The two add each row in a different order, so their values
    differ by float dust. ``weights`` must be n x n for n-entry x0 and y0.

    Convergence is judged on the ratio vector, not on x and y separately:
    once every denominator clears the floor, each new ratio is a convex
    combination of the previous round's ratios, so the spread
    max_i r_i - min_i r_i shrinks monotonically and always brackets the
    limit. Stopping when the spread is at most ``eps`` therefore certifies
    every node's ratio is within ``eps`` of the limit.

    Raises DegenerateDenominatorError if y0 carries no positive mass or a
    denominator is still below the floor at termination.
    """
    x = np.asarray(x0, dtype=float)
    y = np.asarray(y0, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"x0 shape {x.shape} != y0 shape {y.shape}")
    if x.ndim != 1 or weights.shape != (x.size, x.size):
        raise ValueError(f"weight shape {weights.shape} does not match x0 shape {x.shape}")
    if np.any(y < 0):
        raise ValueError("y0 entries must be nonnegative")
    if not np.any(y > 0):
        raise DegenerateDenominatorError("y0 has no positive entries")

    for t in range(1, criteria.max_iters + 1):
        x = weights @ x
        y = weights @ y
        if y.min() <= DENOMINATOR_FLOOR:
            continue
        ratio = x / y
        spread = ratio.max() - ratio.min()
        if spread <= criteria.eps:
            return ConsensusResult(values=ratio, iters=t, converged=True)
    if y.min() <= DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(
            f"denominator still below {DENOMINATOR_FLOOR:g} after "
            f"{criteria.max_iters} rounds"
        )
    return ConsensusResult(values=x / y, iters=criteria.max_iters, converged=False)


def flow_accumulate(
    topology: GridTopology,
    weights: SparseWeights | np.ndarray,
    g0,
    criteria: ConvergenceCriteria,
) -> FlowAccumulator:
    """Average g across the graph while integrating per-edge disagreement.

    ``weights`` (the Metropolis weights of ``topology``) is only checked to
    be n x n: the rounds apply the same weights per edge, from
    ``metropolis_edge_weights``, so that each increment lands on its edge.

    Each round, every edge e = (i, j) with i < j carries an increment
    a_e * (g_j - g_i); node values absorb their incident increments (one
    Metropolis averaging round: i gains it, j loses it) and the
    accumulator records it with h[e] += inc. By telescoping, at every
    round g_i(t) = g_i(0) + sum of h[e](t) over edges e = (i, j) minus sum
    of h[e](t) over edges e = (j, i).

    Stops once a round both changes no node by more than ``eps`` and has
    the node values agreeing to within ``eps`` (values bracket their mean
    throughout, so the spread certifies distance from it). Raises
    ConvergenceError at the round cap.
    """
    n = topology.n
    if weights.shape != (n, n):
        raise ValueError(f"weight shape {weights.shape} does not match {n} nodes")
    g = np.asarray(g0, dtype=float).copy()
    if g.shape != (n,):
        raise ValueError(f"g0 shape {g.shape} does not match {n} nodes")

    heads, tails = topology.edge_index_arrays()
    h = np.zeros(heads.shape[0])
    a = metropolis_edge_weights(topology)

    for t in range(1, criteria.max_iters + 1):
        inc = a * (g[tails] - g[heads])
        h += inc
        g_next = g.copy()
        np.add.at(g_next, heads, inc)
        np.subtract.at(g_next, tails, inc)
        change = np.abs(g_next - g).max()
        g = g_next
        if change <= criteria.eps and g.max() - g.min() <= criteria.eps:
            return FlowAccumulator(h=h, g=g, iters=t)
    raise ConvergenceError(
        f"flow iteration did not settle within {criteria.max_iters} rounds",
        values=g,
        iters=criteria.max_iters,
    )
