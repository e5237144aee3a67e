"""Multi-step scenario runner.

Each physical step runs the fast consensus phases to convergence, commits
the resulting generation changes and flows, and audits the committed state
against capacities and balance targets. Profiles (total demand, or per-node
desired net power) come from explicit lists or a seeded sampler, so a run
is reproducible end to end from its config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consensus import ConvergenceCriteria, _finite_reals, _is_list
from .coordination import NodeCapacities, coordinate_distributed
from .dispatch import (
    GridState,
    StepAudit,
    apply_step,
    audit_state,
    compute_delta_bounds,
    flow_control,
    generation_distributed,
    generation_with_coordination,
)
from .errors import AuditError, ConfigError, GridConsensusError
from .graph import GridTopology, _is_integer, _uniform, metropolis_weight_matrix

MODE_WITH = "with-coordination"
MODE_WITHOUT = "without-coordination"

# The name of each mode's profile: one total per step with coordination,
# one row of per-node desired net power per step without.
SOURCES = {MODE_WITH: "demand", MODE_WITHOUT: "desired"}

_HALVING_CAP = 80


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs; immutable so runs can be repeated exactly.

    ``profile`` is None for a profile drawn from ``seed``; otherwise it
    holds the explicit values, one entry per step: a total demand with
    coordination, a row of n desired net powers without.
    """

    mode: str
    topology: GridTopology
    capacities: NodeCapacities
    horizon: int
    profile: tuple[float, ...] | tuple[tuple[float, ...], ...] | None = None
    seed: int = 0
    leader: int = 1
    criteria: ConvergenceCriteria = field(default_factory=ConvergenceCriteria)
    initial_generation: tuple[float, ...] | None = None
    fail_fast: bool = True

    def __post_init__(self):
        # ConfigError is a ValueError whose ``field`` names the bad field
        if self.mode not in (MODE_WITH, MODE_WITHOUT):
            raise ConfigError(f"must be {MODE_WITH!r} or {MODE_WITHOUT!r}, got {self.mode!r}",
                              field="mode")
        for name in ("horizon", "seed", "leader"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"must be an integer, got {value!r}", field=name)
            object.__setattr__(self, name, int(value))
        if self.horizon < 1:
            raise ConfigError(f"must be >= 1, got {self.horizon}", field="horizon")
        if self.seed < 0:
            raise ConfigError(f"must be a non-negative integer, got {self.seed}", field="seed")
        for name, kind in (("topology", GridTopology), ("capacities", NodeCapacities),
                           ("criteria", ConvergenceCriteria)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"must be one {kind.__name__}, "
                                  f"got {type(getattr(self, name)).__name__}", field=name)
        if type(self.fail_fast) is not bool:
            raise ConfigError(f"must be a bool, got {self.fail_fast!r}", field="fail_fast")
        if self.capacities.n != self.topology.n:
            raise ConfigError(
                f"cover {self.capacities.n} nodes, topology has {self.topology.n}",
                field="capacities",
            )
        if not 1 <= self.leader <= self.topology.n:
            raise ConfigError(f"{self.leader} outside 1..{self.topology.n}", field="leader")
        if self.profile is not None:
            object.__setattr__(self, "profile", _checked_profile(self))
        if self.initial_generation is not None:
            p_G0 = _finite_floats(self.initial_generation, "initial_generation")
            object.__setattr__(self, "initial_generation", p_G0)
            if len(p_G0) != self.topology.n:
                raise ConfigError(f"{len(p_G0)} entries for {self.topology.n} nodes",
                                  field="initial_generation")
            outside = (p_G0 < self.capacities.gen_lo) | (p_G0 > self.capacities.gen_hi)
            if outside.any():
                raise ConfigError(f"node {outside.argmax() + 1} outside its generation bounds",
                                  field="initial_generation")

    def capacities_at(self, k: int) -> NodeCapacities:
        """The run's capacities, the same at every step index k."""
        return self.capacities


def _finite_floats(values, where: str, expected: str = "a list of numbers") -> tuple[float, ...]:
    """``values`` as floats if each is a finite real number; else ConfigError
    naming ``where`` (no list: ``expected`` says what was) or its first bad entry."""
    def fault(i, value, what):
        raise ConfigError(f"expected {what}, got {value!r}", field=f"{where}[{i}]")

    try:
        return tuple(_finite_reals(values, fault).tolist())
    except TypeError:
        raise ConfigError(f"expected {expected}, got {values!r}", field=where) from None


def _checked_profile(config: ScenarioConfig) -> tuple:
    """The explicit profile as tuples of floats. Its entries are checked
    first, in document order (the profile and each row a list, a tuple or
    an array), then the step count, then each step in turn: its row width,
    its node bounds and its total. The first fault raises ConfigError whose
    field names the entry as a config file holds it."""
    where = f"{SOURCES[config.mode]}.values"
    if config.mode == MODE_WITH:
        profile = _finite_floats(config.profile, where)
    elif _is_list(config.profile):
        profile = tuple(_finite_floats(row, f"{where}[{k}]", "a per-node list")
                        for k, row in enumerate(config.profile))
    else:
        raise ConfigError(f"expected a list of per-node lists, got {config.profile!r}",
                          field=where)
    caps = config.capacities
    lower, upper = caps.total_gen_lo, caps.total_gen_hi
    if len(profile) != config.horizon:
        raise ConfigError(f"{len(profile)} entries for horizon {config.horizon}", field=where)
    for k, step in enumerate(profile):
        if config.mode == MODE_WITH:
            total, what = step, f"demand {step}"
        else:
            if len(step) != caps.n:
                raise ConfigError(f"step {k + 1}: desired row has {len(step)} values for "
                                  f"{caps.n} nodes", field=f"{where}[{k}]")
            values = np.array(step)
            off_bounds = ~((caps.net_lo <= values) & (values <= caps.net_hi))
            if off_bounds.any():
                i = int(off_bounds.argmax())
                raise ConfigError(
                    f"step {k + 1}, node {i + 1}: desired net power {step[i]} outside "
                    f"net-power bounds [{caps.net_lo[i]}, {caps.net_hi[i]}]",
                    field=f"{where}[{k}][{i}]",
                )
            with np.errstate(over="ignore"):  # a sum past float range is inf, so outside
                total = float(values.sum())
            what = f"desired profile sums to {total},"
        if not lower <= total <= upper:
            raise ConfigError(f"step {k + 1}: {what} outside [{lower}, {upper}]",
                              field=f"{where}[{k}]")
    return profile


@dataclass(frozen=True)
class SimulationRecord:
    """Per-step time series of one run, plus audits.

    Row k (0-based) describes physical step k+1. Iteration counters hold
    the consensus rounds each phase needed; phases a mode never runs stay
    at zero.
    """

    mode: str
    p_D: np.ndarray
    p_d: np.ndarray
    delta: np.ndarray
    p_G: np.ndarray
    p_F_net: np.ndarray
    p: np.ndarray
    p_e: np.ndarray
    coord_iters: np.ndarray
    gen_iters: np.ndarray
    flow_iters: np.ndarray
    audits: tuple[StepAudit, ...]

    @property
    def horizon(self) -> int:
        return self.p_D.shape[0]

    @property
    def n(self) -> int:
        return self.p_d.shape[1]

    @property
    def all_audits_passed(self) -> bool:
        return all(a.passed for a in self.audits)

    @property
    def max_abs_error(self) -> float:
        return float(np.max(np.abs(self.p_e), initial=0.0))

    @property
    def max_balance_residual(self) -> float:
        return max((abs(a.balance_residual) for a in self.audits), default=0.0)

    @property
    def max_iters_used(self) -> int:
        return int(max(self.coord_iters.max(initial=0),
                       self.gen_iters.max(initial=0),
                       self.flow_iters.max(initial=0)))


def generate_demand_profile(config: ScenarioConfig) -> np.ndarray:
    """Per-step total demand: the explicit profile, or uniform over the
    realizable interval when seeded."""
    if config.profile is not None:
        return np.array(config.profile)
    caps = config.capacities
    lo, hi = caps.total_gen_lo, caps.total_gen_hi
    return lo + (hi - lo) * _uniform(config.seed, config.horizon)


def _interior_profile(caps: NodeCapacities, target_sum: float) -> np.ndarray:
    """Net-bound-respecting profile whose sum is target_sum, by proportional split."""
    net_range = caps.net_hi - caps.net_lo
    total = float(np.sum(net_range))
    if total <= 0.0:
        return caps.net_lo.copy()
    frac = (target_sum - float(np.sum(caps.net_lo))) / total
    return caps.net_lo + net_range * frac


def generate_desired_profile(config: ScenarioConfig) -> np.ndarray:
    """Per-step, per-node desired net power: the explicit rows, or drawn.

    Sampled rows are uniform in each node's net-power box, then pulled
    toward a box-interior center by successive halving until the row sum
    is realizable by the generators — deterministic and rejection-free.
    Generation bounds are deliberately not enforced per node; targets a
    generator cannot meet alone are the point of the flow-control regime.
    """
    if config.profile is not None:
        return np.array(config.profile)
    caps = config.capacities
    lower, upper = caps.total_gen_lo, caps.total_gen_hi
    center = _interior_profile(caps, 0.5 * (lower + upper))
    # draw k n + i for step k and node i
    out = caps.net_lo + (caps.net_hi - caps.net_lo) * _uniform(
        config.seed, config.horizon * caps.n).reshape(config.horizon, caps.n)
    for k, row in enumerate(out):
        for _ in range(_HALVING_CAP):
            if lower <= float(np.sum(row)) <= upper:
                break
            row = center + 0.5 * (row - center)
        else:
            row = center
        out[k] = row
    return out


def run(config: ScenarioConfig) -> SimulationRecord:
    """Execute a scenario and return its full time series.

    With coordination: split each step's demand into per-generator targets,
    track them, keep flows at zero. Without: generators balance the total
    while flows cancel what each node's own generator cannot supply. Audit
    failures raise unless the config says to continue and flag.
    """
    K = config.horizon
    n = config.topology.n
    caps = config.capacities
    s_weights = metropolis_weight_matrix(config.topology)

    p_G0 = caps.gen_lo if config.initial_generation is None else config.initial_generation
    state = GridState.initial(p_G0)

    if config.mode == MODE_WITH:
        demand = generate_demand_profile(config)
        desired_rows = None
    else:
        desired_rows = generate_desired_profile(config)
        demand = desired_rows.sum(axis=1)

    p_d = np.empty((K, n))
    delta = np.empty((K, n))
    p_G = np.empty((K, n))
    p_F_net = np.empty((K, n))
    p_net = np.empty((K, n))
    p_e = np.empty((K, n))
    coord_iters = np.zeros(K, dtype=int)
    gen_iters = np.zeros(K, dtype=int)
    flow_iters = np.zeros(K, dtype=int)
    audits: list[StepAudit] = []

    for k in range(K):
        step = k + 1
        try:
            if config.mode == MODE_WITH:
                phase = "coordination"
                coord = coordinate_distributed(
                    float(demand[k]), caps, config.topology,
                    leader=config.leader, criteria=config.criteria,
                )
                coord_iters[k] = coord.iters
                phase = "generation"
                staged = state.with_desired(coord.desired)
                step_delta = generation_with_coordination(
                    staged, coord.desired, caps, config.criteria
                )
                flows = np.zeros(len(config.topology.edge_array))
            else:
                phase = "generation"
                staged = state.with_desired(desired_rows[k])
                db = compute_delta_bounds(staged, caps)
                gen = generation_distributed(
                    desired_rows[k], staged, db, config.topology, config.criteria
                )
                gen_iters[k] = gen.iters
                step_delta = gen.delta
                phase = "flow control"
                fc = flow_control(
                    staged.after_generation(step_delta), config.topology,
                    s_weights, caps, config.criteria,
                )
                flow_iters[k] = fc.iters
                flows = fc.flows
            phase = "commit"
            state = apply_step(staged, step_delta, flows, config.topology)
        except GridConsensusError as exc:
            # Locate the failure on the exception itself, so fields such as
            # ConvergenceError.values or NotRealizableError.report survive.
            exc.step, exc.phase = step, phase
            exc.args = (f"step {step} ({phase}): {exc}", *exc.args[1:])
            raise

        audit = audit_state(state, caps, config.criteria)
        audits.append(audit)
        if config.fail_fast and not audit.passed:
            raise AuditError(
                f"step {step} audit failed: {', '.join(audit.failures())} "
                f"(max |error| {audit.max_abs_error:.3e}, "
                f"balance residual {audit.balance_residual:.3e})",
                audit=audit,
                step=step,
                phase="audit",
            )

        p_d[k] = state.p_d
        delta[k] = step_delta
        p_G[k] = state.p_G
        p_F_net[k] = state.p_F_net
        p_net[k] = state.p
        p_e[k] = state.p_e

    return SimulationRecord(
        mode=config.mode,
        p_D=demand,
        p_d=p_d,
        delta=delta,
        p_G=p_G,
        p_F_net=p_F_net,
        p=p_net,
        p_e=p_e,
        coord_iters=coord_iters,
        gen_iters=gen_iters,
        flow_iters=flow_iters,
        audits=tuple(audits),
    )
