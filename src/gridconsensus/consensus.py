"""Synchronous-round linear consensus iterations.

Two engines, both operating on per-node value arrays:

* ``ratio_consensus`` — two coupled sum-preserving iterations whose
  per-node ratio converges to sum(x0)/sum(y0).
* ``flow_accumulate`` — Metropolis-weighted averaging carried on the
  per-edge flows alone, whose net inflow gives the node values; its
  steady state supplies the power flows.

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
costs one neighbor exchange, and one product of the (n, 2) array that
carries x and y as a plain round does.

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
feeder, where plain rounds need O(n^2). The plain rounds stay, though a
switch at t0 would save a few rounds: started at once, ratio rounds can
trip the watch on a correct interval while their denominators settle
(CHANGES.md has a case).

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
rounds, never the result. A flow call whose spread is within eps of its
floor, which no round removes, stops there instead.

``_rounds`` checks its rounds in blocks. It runs a block's rounds one
after another, keeping each round's arrays, and then one pass computes
every round's spread at once (a row with a denominator at or below the
floor has none) and takes the decisions above in round order: the stop,
the switch, the watch and its fallback, and the flow floor. The call goes
on from the first round that decides, so it may compute a few rounds past
its stop, or past a switch, and discard them; its rounds, values and
errors are those of a check after every round. Blocks run 1, 2, 4, ...
rounds before the switch, never past the first round at which the watch
could trip (plain rounds do not widen the spread), and restart at 1 after
the switch and every fallback; later blocks run the rounds the
interval's rate predicts from the last spread, floor(ln(spread/eps)/acosh
mu). A block holds at most _BLOCK rounds, and at most _BLOCK_BYTES of
their arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import repeat
from numbers import Real

import numpy as np

from .errors import ConfigError, ConvergenceError
from .graph import _UNIT_ROUNDOFF, GridTopology, SparseWeights, metropolis_edge_weights
from .graph import _all_of, _chebyshev_mu, _is_integer

# Denominators below this are treated as collapsed rather than divided by.
# It guards a division, not a result, so no tolerance derives from it.
DENOMINATOR_FLOOR = 1e-12

# ``_rounds`` checks rounds in blocks of at most _BLOCK rounds, fewer where
# their arrays would pass _BLOCK_BYTES: a block's arrays stay in cache, and
# per-round overhead, not arithmetic, is what blocks save, on small graphs
# (CHANGES.md has the measurements behind both).
_BLOCK = 32
_BLOCK_BYTES = 1 << 18


def _is_list(values) -> bool:
    """Whether ``values`` is a list, a tuple or an array of one or more dimensions."""
    return isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim > 0


def _finite_reals(values, fault: Callable) -> np.ndarray:
    """``values`` read once into a float array of its own, if it is a list
    (``_is_list``; else TypeError) of finite real numbers, numpy ones
    included (a bool, a string, None, a complex number or a row is none),
    by one type pass and one array; else ``fault(i, value, what)`` raises
    for the first bad entry, ``what`` being "a number" or "a finite number"."""
    if not _is_list(values):
        raise TypeError(f"not a list of numbers: {values!r}")
    if _all_of(values, Real):
        try:
            array = np.array(values, dtype=float)
        except OverflowError:  # an integer past the float range
            array = np.array(np.inf)
        if np.isfinite(array).all():
            return array
    for i, value in enumerate(values):  # words the first fault
        if isinstance(value, bool) or not isinstance(value, Real):
            fault(i, value, "a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            fault(i, value, "a finite number")


@dataclass(frozen=True)
class ConvergenceCriteria:
    """Stopping rule: stop once every node's value is certified within
    ``eps`` of the consensus limit (the spread of the node values, or of
    their ratios, is at most ``eps``); raise after ``max_iters`` rounds."""

    eps: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        # ConfigError is a ValueError whose ``field`` names the bad field;
        # eps and max_iters are kept as the float and int they were checked as
        def bad_eps(*_):
            raise ConfigError(f"must be a positive finite number, got {self.eps!r}", field="eps")

        (eps,) = _finite_reals([self.eps], bad_eps).tolist()
        if eps <= 0:
            bad_eps()
        object.__setattr__(self, "eps", eps)
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ConfigError(f"must be an integer >= 1, got {self.max_iters!r}",
                              field="max_iters")
        object.__setattr__(self, "max_iters", int(self.max_iters))

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
    """Per-edge flows h, aligned with the rows of ``topology.edge_array`` (a
    positive h on edge (i, j) is power i sends to j), the node values g they
    leave as ``apply_step`` books them, and rounds."""

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


def _block_after(spread: float, eps: float, rate: float, longest: int) -> int:
    """The Chebyshev rounds that take ``spread`` to ``eps`` at ``rate``,
    floor(ln(spread/eps)/rate), within 1..``longest``; 1 if the spread is
    not a number above eps."""
    if not spread > eps:
        return 1
    return int(min(longest, max(1.0, (math.log(spread) - math.log(eps)) / rate)))


def _rounds(
    plain: Callable, chebyshev: Callable, state: np.ndarray, weights: SparseWeights,
    criteria: ConvergenceCriteria, values: Callable, rows_of: Callable, floor: Callable,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Run rounds t = 1, 2, ... on the array ``state`` until the spread
    max - min of its node values is at most eps, and return t, the array
    and its node values then; raise ConvergenceError with ``max_iters`` and
    the node values of that round if it comes first.

    ``plain(state, v)``, v = ``values(state)``, what the next round reads
    besides the array, applies one round of W and returns a new array;
    ``chebyshev(weights)`` returns the same function for their P.
    ``rows_of(rounds)`` takes a block's rounds, (array, v) pairs, and returns
    their node values, one row per round, nan where undefined; a round's
    spread is its row's max - min, and undefined where the row holds a nan.

    Rounds run in blocks, and a pass over each block's spreads makes every
    decision the module docstring gives: the stop, the switch from plain
    rounds while they keep pace with the Chebyshev bound of the weights'
    interval, and, whenever Chebyshev rounds fall behind their interval's
    bound, the fallback to ``weights.fallback()``, unless the spread is
    within eps plus ``floor(array)``, what no round removes. The call goes
    on from the first round that decides, and the block's later rounds are
    discarded, so it runs the rounds a check after every round would.
    Blocks run 1, 2, 4, ... rounds before the switch, never past the first
    round whose watch could trip, as plain rounds do not widen the spread,
    and restart at 1 after the switch and after every fallback; later ones
    run the rounds the interval's rate predicts from the last spread
    (``_block_after``). A block holds at most _BLOCK rounds, and at most
    _BLOCK_BYTES of their arrays.
    """
    eps, cap = criteria.eps, criteria.max_iters
    rate = math.acosh(_chebyshev_mu(weights.interval))
    step, omegas, limit = plain, repeat(1.0), None
    prev, v = state, values(state)
    size = state.nbytes + (0 if v is None else v.nbytes)
    t, block, longest = 0, 1, max(1, min(_BLOCK, _BLOCK_BYTES // size))
    while t < cap:
        rounds = []
        for _ in range(min(block, cap - t)):
            new, omega = step(state, v), next(omegas)
            if omega != 1.0:  # w = 1 in plain rounds and the first of a recurrence
                new *= omega
                new -= (omega - 1.0) * prev
            prev, state, v = state, new, values(new)
            rounds.append((state, v))
        rows = rows_of(rounds)
        for i, s in enumerate((rows.max(axis=1) - rows.min(axis=1)).tolist()):
            if math.isnan(s):
                continue
            u = t + 1 + i
            if s <= eps:
                return u, rounds[i][0], rows[i]
            if limit is None:
                t0, limit = u, 2.0 * s
            # math.cosh overflows past 710; at 700 any spread above limit / 1e304 fails
            elif s * math.cosh(min((u - t0) * rate, 700.0)) > limit:
                if step is not plain:
                    if s <= eps + floor(rounds[i][0]):
                        return u, rounds[i][0], rows[i]
                    weights = weights.fallback()
                # the switch, or a fallback: the recurrence starts afresh from
                # round u, and the block's later rounds are discarded
                mu = _chebyshev_mu(weights.interval)
                rate, step, omegas = math.acosh(mu), chebyshev(weights), _recurrence_weights(mu)
                t, block, (state, v) = u, 1, rounds[i]
                t0, limit, prev = u, 2.0 * math.sqrt(rows.shape[1]) * s, state
                break
        else:
            t += len(rounds)
            if step is not plain:
                block = _block_after(s, eps, rate, longest)
            else:
                block = min(2 * block, longest)
                if limit is not None and not math.isnan(s):
                    # spreads of plain rounds do not grow past s, so no round
                    # trips the watch before cosh((u - t0) rate) > limit / s
                    reach = math.acosh(max(1.0, limit / s)) / rate
                    block = max(1, int(min(block, reach + 1 - (t - t0))))
    values = rows[-1].copy()
    message = f"consensus did not converge within {cap} rounds"
    if np.isnan(values).any():
        nodes = np.array2string(np.flatnonzero(np.isnan(values)) + 1, separator=", ", threshold=10)
        message += f"; undefined (nan) at nodes {nodes}"
    raise ConvergenceError(message, values=values, iters=cap)


def _operands(weights, **operands) -> list[np.ndarray]:
    """The ``operands`` as float arrays, once the checks both engines make
    before any round pass: TypeError if ``weights`` is not ``SparseWeights``,
    and ValueError naming the first operand that is not one finite number
    per row of them (no round removes a nan or an infinity)."""
    if not isinstance(weights, SparseWeights):
        raise TypeError(f"weights must be SparseWeights, got {type(weights).__name__}")
    arrays = []
    for name, values in operands.items():
        array = np.asarray(values, dtype=float)
        if array.shape != weights.shape[:1]:
            raise ValueError(f"{name} shape {array.shape} does not match "
                             f"weight shape {weights.shape}")
        if not np.isfinite(array).all():
            raise ValueError(f"{name} entries must be finite")
        arrays.append(array)
    return arrays


def ratio_consensus(
    weights: SparseWeights, x0, y0, criteria: ConvergenceCriteria
) -> ConsensusResult:
    """Run x and y through the same sum-preserving iteration and return the
    per-node ratios x_i/y_i, which all converge to sum(x0)/sum(y0).

    x and y are the two columns of one (n, 2) array z, and one round is
    ``weights @ z``: one slot-major product over the edges' entries,
    O(n + m) per round, each column bit for bit a product of its own.
    ``weights`` must be n x n for n-entry x0 and y0.

    Convergence is judged on the ratio vector, not on x and y separately:
    every round preserves sum(x) and sum(y), so once every denominator
    clears the floor, sum(x)/sum(y) is a y-weighted mean of the ratios and
    the spread max_i r_i - min_i r_i brackets it. Stopping when the spread
    is at most ``eps`` therefore certifies every node's ratio is within
    ``eps`` of the limit. (Plain rounds also shrink the spread
    monotonically; Chebyshev rounds need not.)

    Raises, before any round, what ``_operands`` raises for the weights,
    x0 and y0, and ValueError if y0 holds a negative entry or no positive
    one; ConvergenceError at the round cap, whose ``values`` are that
    round's ratios, nan where a denominator is at or below the floor.
    """
    x, y = _operands(weights, x0=x0, y0=y0)
    if np.any(y < 0) or not np.any(y > 0):
        raise ValueError("y0 entries must be nonnegative, and one positive")

    def rounds_of(w):
        return lambda z, _: w @ z

    def ratios(rounds):
        z = np.array([z for z, _ in rounds])
        x, y = z[:, :, 0], z[:, :, 1]
        if y.min() > DENOMINATOR_FLOOR:
            return x / y
        # a collapsed denominator leaves its ratio, and its round's spread, undefined
        return np.divide(x, y, out=np.full(x.shape, np.nan), where=y > DENOMINATOR_FLOOR)

    t, _, ratio = _rounds(rounds_of(weights), lambda w: rounds_of(w.shifted()),
                          np.stack((x, y), axis=1), weights, criteria, lambda z: None,
                          ratios, lambda z: 0.0)
    return ConsensusResult(values=ratio.copy(), iters=t)


def flow_accumulate(
    topology: GridTopology,
    weights: SparseWeights,
    g0,
    criteria: ConvergenceCriteria,
) -> FlowAccumulator:
    """Average g across the graph, carrying only the per-edge flows.

    ``weights`` (the Metropolis weights of ``topology``, n x n) carries the
    interval that sets the switch; the rounds apply the same weights per edge,
    from ``metropolis_edge_weights``, so that each increment lands on its
    edge, and those of P as a_e/(1 - c), so the shifted matrix is never
    built.

    The rounds carry the flows h, one entry per row of
    ``topology.edge_array``, alone. Each reads the node values g = g0 +
    ``topology.incident_sums(h, -h)``, the net inflow of the flows as
    ``dispatch.apply_step`` books it, and adds a_e * (g_i - g_j) to h[e] for
    each edge e = (i, j), i < j: one Metropolis averaging round of g. g is
    affine in h, so the Chebyshev combination of h combines g alike.

    Stops once the node values agree to within ``eps``: their sum is
    preserved, so the spread certifies that the flows h leave every node
    within ``eps`` of their mean, in the sum the export books. Where the
    Chebyshev watch trips, a spread within eps plus the floor no round
    removes stops the call too; d is the largest degree, u the unit
    roundoff. The floor is the rounding of that sum, gamma_{d+1} * 2 max_i
    (|g0_i| + sum of |h_e| on i's edges), plus the stall of h. A Chebyshev
    round sets h_e to omega (h_e + a_e (g_i - g_j)/(1 - c)) - (omega - 1)
    h_e' in roundings worth at most 3 omega u |h_e| (omega - 1 is exact).
    Where h no longer moves, the increment is within them, so
    |g_i - g_j| <= 3 (1 - c) u |h_e| / a_e < 6 u |h_e| / a_e, as c > -1;
    summed along a path, the spread is at most 6 u sum_e |h_e| / a_e
    <= 6 u (d + 1) sum_e |h_e|. Raises, before any round, what
    ``_operands`` raises for the weights and g0, and ValueError if the
    weights do not match the topology's nodes; ConvergenceError at the
    round cap.
    """
    (g0,) = _operands(weights, g0=g0)
    if weights.shape != (topology.n, topology.n):
        raise ValueError(f"weight shape {weights.shape} does not match {topology.n} nodes")

    heads, tails = topology.edge_index_arrays()
    terms = topology.max_degree + 1

    def node_values(h):
        return g0 + topology.incident_sums(h, -h)

    a = metropolis_edge_weights(topology)

    def floor(h):
        h = np.abs(h)
        magnitude = 2.0 * float(np.max(np.abs(g0) + topology.incident_sums(h, h)))
        stall = 6.0 * _UNIT_ROUNDOFF * float(np.sum(h / a))
        return criteria.tolerance(0.0, magnitude, terms) + stall

    def rounds_of(a):
        return lambda h, g: h + a * (g[heads] - g[tails])

    t, h, g = _rounds(rounds_of(a), lambda w: rounds_of(a / (1.0 - w.shift)),
                      np.zeros(heads.shape[0]), weights, criteria, node_values,
                      lambda rounds: np.array([g for _, g in rounds]), floor)
    return FlowAccumulator(h=h, g=g.copy(), iters=t)
