"""Layer spans recorded from outside the program.

A traced run rebinds public functions of the package's modules in the
namespace of the module that calls them (``simulation.apply_step``,
``dispatch.ratio_consensus``, ...) to wrappers that record a span per call,
and puts the originals back when the run ends. Nothing under ``src/``
changes, and an untraced run executes the original code untouched.

Spans nest by call order: a span's self time is its duration minus the
durations of the spans opened inside it. The per-layer metrics are sums,
maxima or percentiles over the spans of one scenario.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import gridconsensus.config as config_mod
import gridconsensus.consensus as consensus_mod
import gridconsensus.coordination as coordination_mod
import gridconsensus.dispatch as dispatch_mod
import gridconsensus.export as export_mod
import gridconsensus.simulation as simulation_mod


def _nbytes(obj) -> int:
    """Bytes held by an array, or by the arrays in a tuple or list."""
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


def _argument(fn, args, kwargs, name: str, position: int):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments[name]
    except (TypeError, KeyError):
        return args[position] if len(args) > position else None


def _ratio_counts(fn, args, kwargs, result) -> dict:
    weights = _argument(fn, args, kwargs, "weights", 0)
    return {"rounds": result.iters, "weight_bytes": _nbytes(weights)}


def _flow_counts(fn, args, kwargs, result) -> dict:
    return {"rounds": result.iters, "acc_bytes": _nbytes(getattr(result, "h", None))}


def _apply_counts(fn, args, kwargs, result) -> dict:
    return {"flow_bytes": _nbytes(_argument(fn, args, kwargs, "flows", 2))}


def _csv_counts(fn, args, kwargs, result) -> dict:
    record = _argument(fn, args, kwargs, "record", 0)
    path = _argument(fn, args, kwargs, "path", 1)
    return {"rows": record.horizon * (record.n + 1), "bytes": os.path.getsize(path)}


W, WO = simulation_mod.MODE_WITH, simulation_mod.MODE_WITHOUT

# (module, attribute looked up at call time, span name, counter hook, role,
# the modes whose scenarios must call it). Role "phase" opens a step span
# if none is open; role "audit" closes it.
_BINDINGS = (
    (config_mod, "build_topology", "graph.topology", None, None, {W, WO}),
    (simulation_mod, "generate_demand_profile", "simulation.profile", None, None, {W}),
    (simulation_mod, "generate_desired_profile", "simulation.profile", None, None, {WO}),
    (simulation_mod, "metropolis_weight_matrix", "graph.metropolis_weights", None, None,
     {W, WO}),
    (simulation_mod, "coordinate_distributed", "coordination.distributed", None, "phase",
     {W}),
    (simulation_mod, "generation_with_coordination", "dispatch.generation", None, "phase",
     {W}),
    (simulation_mod, "compute_delta_bounds", "dispatch.generation", None, "phase", {WO}),
    (simulation_mod, "generation_distributed", "dispatch.generation", None, "phase", {WO}),
    (simulation_mod, "flow_control", "dispatch.flow_control", None, "phase", {WO}),
    (simulation_mod, "apply_step", "dispatch.apply_step", _apply_counts, "phase", {W, WO}),
    (simulation_mod, "audit_state", "dispatch.audit", None, "audit", {W, WO}),
    (coordination_mod, "ratio_consensus", "consensus.ratio", _ratio_counts, None, {W}),
    (coordination_mod, "degree_weight_matrix", "graph.degree_weights", None, None, {W}),
    (dispatch_mod, "ratio_consensus", "consensus.ratio", _ratio_counts, None, {WO}),
    (dispatch_mod, "degree_weight_matrix", "graph.degree_weights", None, None, {WO}),
    (dispatch_mod, "flow_accumulate", "consensus.flow", _flow_counts, None, {WO}),
    (consensus_mod, "metropolis_edge_weights", "graph.metropolis_weights", None, None, {WO}),
    (export_mod, "write_timeseries_csv", "export.csv", _csv_counts, None, {W, WO}),
)

_MAX_COUNTERS = {"weight_bytes", "acc_bytes", "flow_bytes", "bytes"}


class TraceError(RuntimeError):
    """The traced run could not account for the program's work."""


class Tracer:
    """Span recorder for one traced scenario; wraps calls via ``call``."""

    def __init__(self):
        self.calls = defaultdict(int)      # span name -> calls
        self.total = defaultdict(float)    # span name -> seconds
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)   # "span.counter" -> sum or max
        self.binding_calls = defaultdict(int)
        self.step_ms: list[float] = []
        self._stack: list[list[float]] = []  # [start, child seconds]
        self._step_start: float | None = None

    def call(self, name, fn, args=(), kwargs=None, counts=None, role=None, binding=None):
        kwargs = kwargs or {}
        start = time.perf_counter()
        if role == "phase" and self._step_start is None:
            self._step_start = start
        frame = [start, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if binding is not None:
                self.binding_calls[binding] += 1
        if role == "audit" and self._step_start is not None:
            self.step_ms.append((end - self._step_start) * 1e3)
            self._step_start = None
        if counts is not None:
            for key, value in counts(fn, args, kwargs, result).items():
                full = f"{name}.{key}"
                if key in _MAX_COUNTERS:
                    self.counters[full] = max(self.counters[full], int(value))
                else:
                    self.counters[full] += int(value)
        return result

    def _wrapper(self, module, attr, name, counts, role):
        fn = getattr(module, attr)
        binding = (module.__name__, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts, role, binding)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counts, role, _ in _BINDINGS:
                if not hasattr(module, attr):
                    raise TraceError(f"{module.__name__} no longer binds {attr!r}")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrapper(module, attr, name, counts, role))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def check(self, record) -> None:
        """Fail loudly when a span the mode needs never fired, or the span
        rounds disagree with the record's iteration totals."""
        silent = [
            f"{module.__name__}.{attr}"
            for module, attr, *_, modes in _BINDINGS
            if record.mode in modes and self.binding_calls[(module.__name__, attr)] == 0
        ]
        if silent:
            raise TraceError(f"expected spans recorded no calls: {', '.join(silent)}")
        ratio = int(record.coord_iters.sum() + record.gen_iters.sum())
        flow = int(record.flow_iters.sum())
        spans = (self.counters["consensus.ratio.rounds"], self.counters["consensus.flow.rounds"])
        if spans != (ratio, flow):
            raise TraceError(
                f"span rounds (ratio {spans[0]}, flow {spans[1]}) differ from the "
                f"record's iteration totals (ratio {ratio}, flow {flow})"
            )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the scenario this tracer recorded."""
        t, s, c = self.total, self.self_time, self.counters
        ratio_rounds = c["consensus.ratio.rounds"]
        flow_rounds = c["consensus.flow.rounds"]
        step = self.step_ms
        return {
            "consensus.ratio_s": t["consensus.ratio"],
            "consensus.ratio.rounds": ratio_rounds,
            "consensus.ratio.us_per_round":
                t["consensus.ratio"] / ratio_rounds * 1e6 if ratio_rounds else 0.0,
            "consensus.ratio.weight_bytes": c["consensus.ratio.weight_bytes"],
            "consensus.flow_s": t["consensus.flow"],
            "consensus.flow.rounds": flow_rounds,
            "consensus.flow.us_per_round":
                t["consensus.flow"] / flow_rounds * 1e6 if flow_rounds else 0.0,
            "consensus.flow.acc_bytes": c["consensus.flow.acc_bytes"],
            "coordination.self_s": s["coordination.distributed"],
            "dispatch.generation.self_s": s["dispatch.generation"],
            "dispatch.flow_control.self_s": s["dispatch.flow_control"],
            "dispatch.apply_step_s": t["dispatch.apply_step"],
            "dispatch.flow_bytes": c["dispatch.apply_step.flow_bytes"],
            "dispatch.audit_s": t["dispatch.audit"],
            "graph.degree_weights_s": t["graph.degree_weights"],
            "graph.degree_weights.calls": self.calls["graph.degree_weights"],
            "graph.metropolis_weights_s": t["graph.metropolis_weights"],
            "graph.topology_s": t["graph.topology"],
            "config.parse.self_s": s["config.parse"],
            "export.csv_s": t["export.csv"],
            "export.rows": c["export.csv.rows"],
            "export.bytes": c["export.csv.bytes"],
            "simulation.self_s": s["simulation.run"],
            "simulation.profile_s": t["simulation.profile"],
            "simulation.step_ms.p50": statistics.median(step),
            "simulation.step_ms.p90":
                statistics.quantiles(step, n=10, method="inclusive")[8] if len(step) > 1
                else step[0],
        }

