"""Synchronous-round linear consensus iterations.

Two engines, both operating on per-node value arrays:

* ``ratio_consensus`` — two coupled sum-preserving iterations whose
  per-node ratio converges to sum(x0)/sum(y0).
* ``flow_accumulate`` — Metropolis-weighted averaging that additionally
  integrates the disagreement across each edge into a per-edge
  accumulator; its steady state supplies the power flows.

All rounds are synchronous: every node updates from the previous round's
values, plus, after the switch below, its own value one round earlier.
Nothing here mutates its inputs.

Both engines run their rounds in ``_rounds``, which owns the one stopping
rule: stop once the spread max - min of the node values (ratio consensus:
of the ratios) is at most ``eps``. Rounds start plain, x <- W x. Later
ones follow the Chebyshev semi-iteration (Golub & Varga, 1961) on the
shifted weights P = (W - cI)/(1 - c) (``SparseWeights.shifted``), where
every eigenvalue of W but the consensus eigenvalue 1 lies in the
interval [lo, hi] (``SparseWeights.interval``, measured from the weights
by Lanczos) and c = (lo + hi)/2 is its middle:

    x_{t+1} = w_t P x_t - (w_t - 1) x_{t-1},

with w_1 = 1, w_2 = 2mu^2/(2mu^2 - 1) and w_{t+1} = 1/(1 - w_t/(4mu^2)),
where mu = (1 - c)/((hi - lo)/2); a one-point interval has its half-width
floored, so mu stays finite. P keeps every column sum of W, and the
weights w and 1 - w add to one, so sums stay preserved; a round still
costs one neighbor exchange, and one product per vector as a plain round
does.

k Chebyshev rounds shrink the error by 1/cosh(k acosh mu) under the
interval. Plain rounds go on while they keep pace with that: the switch
comes at the first round t where

    spread_t * cosh((t - t0) acosh mu) > 2 spread_t0,

t0 being the first round whose spread is defined (ratio rounds skip
denominators below the floor). Plain rounds that keep pace run alone to
the stop or the round cap. On the measured interval, which is nearly
exact, plain rounds fall behind early (after about 5 rounds on the
2000-node benchmark mesh, 80 to 115 on the 120-node feeder), and a call
then takes about ln(spread/eps)/acosh(mu) more: O(n) rounds on a radial
feeder, where plain rounds need O(n^2).

Lanczos can misjudge an interval, and so the Chebyshev rounds watch the
same bound: they fall behind at the first round t where

    spread_t * cosh((t - t0) acosh mu) > 2 sqrt(n) spread_t0,

t0 being the switch round. A correct interval keeps the flow rounds
inside it (spread_t is at most twice the 2-norm of the error, which
starts at most sqrt(n) spread_t0), and measured ratio rounds stay within
twice the bound too. The Chebyshev rounds then go on, from the current
values and spread, on the wider interval [-1, 1 - (1 - hi)/4]
(``SparseWeights.fallback``), with the recurrence started afresh, and
watch that one the same way, so an interval still too narrow widens
again. Plain rounds run only before the switch. Sums are preserved
throughout, so a widening loses nothing, and a wrong interval costs
rounds, never the result. Dense ``np.ndarray`` weights carry no interval
and stay plain: they are the reference engine.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConvergenceError, DegenerateDenominatorError
from .graph import _UNIT_ROUNDOFF, GridTopology, SparseWeights, metropolis_edge_weights
from .graph import _chebyshev_mu

# Denominators below this are treated as collapsed rather than divided by.
# It guards a division, not a result, so no tolerance derives from it.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceCriteria:
    """Stopping rule: stop once every node's value is certified within
    ``eps`` of the consensus limit (the spread of the node values, or of
    their ratios, is at most ``eps``); raise after ``max_iters`` rounds."""

    eps: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        if not isinstance(self.eps, Real) or self.eps is True or not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be a positive finite number, got {self.eps!r}")
        if type(self.max_iters) is not int or self.max_iters < 1:  # bool subclasses int
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")

    def tolerance(self, width, magnitude, terms: int):
        """The one error budget: how far a value computed from results this
        rule certified may miss its exact value. That is ``eps * width``,
        what the certificate allows, plus gamma_k * ``magnitude``, the
        rounding on summed operand magnitudes (Higham, 2002, sec. 3.1).
        numpy sums ``terms`` numbers in blocks of 128 (at most 24
        roundings) and pairwise above, so k = 24 + bit_length(terms) leaves
        a few for the elementwise operations before the sum."""
        ku = (24 + terms.bit_length()) * _UNIT_ROUNDOFF
        return self.eps * width + ku / (1.0 - ku) * magnitude


@dataclass(frozen=True)
class ConsensusResult:
    """Per-node values once the stopping tolerance was met, and the rounds
    it took; hitting the round cap raises instead."""

    values: np.ndarray
    iters: int


@dataclass(frozen=True)
class FlowAccumulator:
    """Per-edge accumulator h, aligned with ``topology.edges``, and node
    values g at termination of the flow iteration, plus rounds executed."""

    h: np.ndarray
    g: np.ndarray
    iters: int


def _recurrence_weights(mu: float) -> Iterator[float]:
    omega = 1.0
    yield omega
    omega = 2.0 * mu * mu / (2.0 * mu * mu - 1.0)
    while True:
        yield omega
        omega = 1.0 / (1.0 - omega / (4.0 * mu * mu))


def _rounds(
    plain: Callable, chebyshev: Callable, a: np.ndarray, b: np.ndarray, weights,
    criteria: ConvergenceCriteria, spread: Callable,
) -> tuple[int | None, np.ndarray, np.ndarray]:
    """Run rounds t = 1, 2, ... on both arrays until ``spread(a, b)`` is at
    most eps; return t and the arrays then, or None and the arrays after
    ``max_iters`` rounds. ``spread`` returns None where it is undefined.

    ``plain(a, b)`` applies one round of W and returns new arrays. Plain
    rounds come first, and only then: they run while they keep pace with
    the Chebyshev bound of the weights' interval, and then
    ``chebyshev(weights)`` returns the same function for their P. The module docstring gives both watches, and the
    fallback: whenever Chebyshev rounds fall behind their interval's
    bound, they go on, from the current arrays, on ``weights.fallback()``.
    Dense weights carry no interval and stay plain.
    """
    eps, cap = criteria.eps, criteria.max_iters
    sparse = isinstance(weights, SparseWeights)
    rate = math.acosh(_chebyshev_mu(weights.interval)) if sparse else 0.0
    limit = None
    for t in range(1, cap + 1):
        a, b = plain(a, b)
        s = spread(a, b)
        if s is None:
            continue
        if s <= eps:
            return t, a, b
        if limit is None:
            t0, limit = t, 2.0 * s
        # math.cosh overflows past 710; at 700 any spread above limit / 1e304 fails
        elif sparse and s * math.cosh(min((t - t0) * rate, 700.0)) > limit:
            break
    slack = 2.0 * math.sqrt(a.size)
    while t < cap:
        # the switch, or a fallback, came at round t, where the spread s was defined
        mu = _chebyshev_mu(weights.interval)
        rate, step = math.acosh(mu), chebyshev(weights)
        t0, limit = t, slack * s
        a_prev, b_prev = a, b
        for t, omega in zip(range(t + 1, cap + 1), _recurrence_weights(mu)):
            a_next, b_next = step(a, b)
            a_next *= omega
            a_next -= (omega - 1.0) * a_prev
            b_next *= omega
            b_next -= (omega - 1.0) * b_prev
            a_prev, b_prev, a, b = a, b, a_next, b_next
            s = spread(a, b)
            if s is None:
                continue
            if s <= eps:
                return t, a, b
            if s * math.cosh(min((t - t0) * rate, 700.0)) > limit:
                weights = weights.fallback()
                break
    return None, a, b


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
    every round preserves sum(x) and sum(y), so once every denominator
    clears the floor, sum(x)/sum(y) is a y-weighted mean of the ratios and
    the spread max_i r_i - min_i r_i brackets it. Stopping when the spread
    is at most ``eps`` therefore certifies every node's ratio is within
    ``eps`` of the limit. (Plain rounds also shrink the spread
    monotonically; Chebyshev rounds need not.)

    Raises DegenerateDenominatorError if y0 carries no positive mass or a
    denominator is still below the floor at the round cap, and
    ConvergenceError if the spread is still above ``eps`` there.
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

    def spread(x, y):
        if y.min() <= DENOMINATOR_FLOOR:
            return None
        ratio = x / y
        return ratio.max() - ratio.min()

    def chebyshev(weights):
        p = weights.shifted()
        return lambda x, y: (p @ x, p @ y)

    t, x, y = _rounds(lambda x, y: (weights @ x, weights @ y), chebyshev, x, y, weights,
                      criteria, spread)
    if t is not None:
        return ConsensusResult(values=x / y, iters=t)
    if y.min() <= DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(
            f"denominator still below {DENOMINATOR_FLOOR:g} after "
            f"{criteria.max_iters} rounds"
        )
    raise ConvergenceError(
        f"ratio consensus did not converge within {criteria.max_iters} rounds",
        values=x / y,
        iters=criteria.max_iters,
    )


def flow_accumulate(
    topology: GridTopology,
    weights: SparseWeights | np.ndarray,
    g0,
    criteria: ConvergenceCriteria,
) -> FlowAccumulator:
    """Average g across the graph while integrating per-edge disagreement.

    ``weights`` (the Metropolis weights of ``topology``, n x n) carries the
    interval that sets the switch; the rounds apply the same weights per edge,
    from ``metropolis_edge_weights``, so that each increment lands on its
    edge, and those of P as a_e/(1 - c), so the shifted matrix is never
    built.

    Each round, every edge e = (i, j) with i < j carries an increment
    a_e * (g_j - g_i); node values absorb their incident increments (one
    Metropolis averaging round: i gains it, j loses it) and the
    accumulator records it with h[e] += inc. By telescoping, at every
    round g_i(t) = g_i(0) + sum of h[e](t) over edges e = (i, j) minus sum
    of h[e](t) over edges e = (j, i). A round of P books
    a_e/(1 - c) * (g_j - g_i) instead, and the Chebyshev combination of g
    and h is linear, so the identity still holds.

    Stops once the node values agree to within ``eps``: their sum is
    preserved, so they bracket their mean throughout and the spread
    certifies that the flows -h leave every node within ``eps`` of it.
    Raises ConvergenceError at the round cap.
    """
    n = topology.n
    if weights.shape != (n, n):
        raise ValueError(f"weight shape {weights.shape} does not match {n} nodes")
    g = np.asarray(g0, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"g0 shape {g.shape} does not match {n} nodes")

    heads, tails = topology.edge_index_arrays()

    def rounds_of(a):
        def step(g, h):
            inc = a * (g[tails] - g[heads])
            g_next = g.copy()
            np.add.at(g_next, heads, inc)
            np.subtract.at(g_next, tails, inc)
            return g_next, h + inc
        return step

    a = metropolis_edge_weights(topology)
    t, g, h = _rounds(rounds_of(a), lambda w: rounds_of(a / (1.0 - w.shift)),
                      g, np.zeros(heads.shape[0]), weights, criteria,
                      lambda g, h: g.max() - g.min())
    if t is not None:
        return FlowAccumulator(h=h, g=g, iters=t)
    raise ConvergenceError(
        f"flow iteration did not settle within {criteria.max_iters} rounds",
        values=g,
        iters=criteria.max_iters,
    )
