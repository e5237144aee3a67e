"""Correctness of one simulated scenario, checked outside the timed region.

Every step of a record must pass its audit and agree with the closed-form
oracle of its phase, within the bounds the acceptance tests certify:

* with coordination, the recorded targets ``p_d`` match
  ``coordinate_closed_form`` to 1e-8 relative per node and sum to the
  demand within 1e-8 relative (criterion 1), and no power flows
  (criterion 5);
* without coordination, the recorded generation change ``delta`` matches
  ``generation_closed_form`` from the previous step's generation to 1e-8,
  relative with a unit floor (criterion 3).
"""

from __future__ import annotations

import hashlib

import numpy as np

from gridconsensus import (
    MODE_WITH,
    GridState,
    compute_delta_bounds,
    coordinate_closed_form,
    generation_closed_form,
)

ORACLE_TOL = 1e-8


def _step_ok(config, record, k: int, p_G_before: np.ndarray) -> bool:
    if not record.audits[k].passed:
        return False
    caps = config.capacities_at(k)
    p_D = float(record.p_D[k])
    if record.mode == MODE_WITH:
        oracle = coordinate_closed_form(p_D, caps).desired
        return bool(
            np.max(np.abs(record.p_d[k] - oracle) / np.abs(oracle)) <= ORACLE_TOL
            and abs(float(record.p_d[k].sum()) - p_D) <= ORACLE_TOL * abs(p_D)
            and np.all(record.p_F_net[k] == 0.0)
        )
    state = GridState.initial(p_G_before).with_desired(record.p_d[k])
    oracle = generation_closed_form(p_D, state, compute_delta_bounds(state, caps))
    scale = np.maximum(np.abs(oracle), 1.0)
    return bool(np.max(np.abs(record.delta[k] - oracle) / scale) <= ORACLE_TOL)


def failed_steps(config, record) -> int:
    """Number of steps of ``record`` that miss their audit or oracle."""
    if config.initial_generation is not None:
        p_G = np.asarray(config.initial_generation, dtype=float)
    else:
        p_G = config.capacities_at(0).gen_lo
    failed = 0
    for k in range(record.horizon):
        failed += not _step_ok(config, record, k, p_G)
        p_G = record.p_G[k]
    return failed


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
