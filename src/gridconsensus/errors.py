"""Exception types shared across the package.

All domain failures derive from GridConsensusError so callers (and the CLI)
can distinguish them from I/O or parse problems.
"""

from __future__ import annotations


class GridConsensusError(Exception):
    """Base class for all domain-level failures.

    ``step`` and ``phase`` say where in a simulation run the failure
    happened; they stay None outside a run.
    """

    def __init__(self, *args, step=None, phase=None):
        super().__init__(*args)
        self.step = step
        self.phase = phase


class TopologyError(GridConsensusError):
    """Invalid grid topology."""


class EndpointOutOfRangeError(TopologyError):
    """An edge endpoint is not a valid node index."""


class SelfLoopError(TopologyError):
    """An edge connects a node to itself."""


class DuplicateEdgeError(TopologyError):
    """The same unordered node pair appears more than once."""


class DisconnectedGraphError(TopologyError):
    """The graph is not a single connected component."""


class CapacityError(GridConsensusError):
    """Per-node capacity bounds are inconsistent."""


class ConvergenceError(GridConsensusError):
    """An iteration hit its round cap before meeting its tolerance;
    ``iters`` is the cap and ``values`` the node values of that round, nan
    where undefined."""

    def __init__(self, message, values=None, iters=None):
        super().__init__(message)
        self.values = values
        self.iters = iters


class NotRealizableError(GridConsensusError):
    """Total demand falls outside the aggregate generation capacity."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InfeasibleStepError(GridConsensusError):
    """A per-step generation change cannot satisfy its adjustment bounds."""


class BoundViolationError(GridConsensusError):
    """A per-node value violates its stated capacity bound."""


class BalanceError(GridConsensusError):
    """Aggregate supply-demand balance does not hold where required."""


class AuditError(GridConsensusError):
    """A simulation step failed a constraint audit (fail-fast mode);
    ``audit`` is the failing StepAudit."""

    def __init__(self, message, audit=None, step=None, phase=None):
        super().__init__(message, step=step, phase=phase)
        self.audit = audit


class ConfigError(GridConsensusError, ValueError):
    """A configuration document or a ScenarioConfig failed validation.

    ``field`` anchors the failure to the offending field path, e.g.
    ``nodes[2].gen`` or ``horizon``. It is also a ValueError, the class
    a dataclass raises for a bad argument.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

    def __str__(self):
        base = super().__str__()
        if self.field:
            return f"{self.field}: {base}"
        return base
