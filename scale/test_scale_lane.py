"""Scale lane: whole runs on the largest grid-like topologies.

Each case runs two seeded steps on a path of 4 000 nodes, on the 1 002-node
radial feeder or on a 100 x 100 lattice, in both modes, and asserts that
every step passes its audit and the closed-form oracle of
``perfbench/checks.py``. Each prints its rounds per phase and its wall
time. The lane sits outside ``testpaths``, so tier-1 does not run it; run
it with

    python -m pytest scale -q -s

(``-s`` shows the printed rounds and times). It takes about 30 s, of which
the lattice's two cases take about 2.5 s.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from conftest import feeder, path_topology, random_capacities  # noqa: E402
from gridconsensus import (  # noqa: E402
    MODE_WITH, MODE_WITHOUT, ScenarioConfig, build_topology, run)


def lattice(k: int):
    """A k x k grid, node r k + c + 1 at row r and column c, each joined to
    its right and lower neighbors."""
    across = [(v, v + 1) for v in range(1, k * k + 1) if v % k]
    down = [(v, v + k) for v in range(1, k * k - k + 1)]
    return build_topology(k * k, across + down)


TOPOLOGIES = {"path-4000": lambda: path_topology(4000), "feeder-1002": lambda: feeder(334),
              "lattice-100x100": lambda: lattice(100)}


@pytest.mark.parametrize("mode", [MODE_WITH, MODE_WITHOUT])
@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_two_steps_pass_every_audit_and_oracle(name, mode):
    topology = TOPOLOGIES[name]()
    caps = random_capacities(np.random.default_rng(5), topology.n)
    config = ScenarioConfig(mode=mode, topology=topology, capacities=caps, horizon=2, seed=3)
    start = time.perf_counter()
    record = run(config)
    wall = time.perf_counter() - start
    print(f"\n{name} {mode}: coordination {record.coord_iters.tolist()}, generation "
          f"{record.gen_iters.tolist()}, flow {record.flow_iters.tolist()} rounds; "
          f"{wall:.1f} s")
    assert record.all_audits_passed
    assert checks.failed_steps(config, record) == 0
