"""Exported time series: the exact bytes of timeseries.csv."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gridconsensus import (
    SimulationRecord,
    default_config_path,
    export_record,
    load_config,
    parse_config,
    run,
    write_timeseries_csv,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def test_timeseries_csv_golden(tmp_path):
    # Two nodes, two steps, with values whose 17-digit forms are easy to get
    # wrong: a signed zero, non-terminating binary fractions, a tiny
    # normal, and 2**53 + 1.0, which rounds to 2**53.
    third = 1.0 / 3.0
    big = 2.0**53 + 1.0
    record = SimulationRecord(
        mode="without-coordination",
        p_D=np.array([0.1, 2.0]),
        p_d=np.array([[-0.0, 0.1], [1e-300, 1e-300]]),
        delta=np.array([[third, 1e-300], [-0.0, -0.0]]),
        p_G=np.array([[big, 1.0], [3.0, -1.0]]),
        p_F_net=np.array([[0.5, -0.5], [0.1, 0.2]]),
        p=np.array([[1.5, -0.0], [0.1, 0.2]]),
        p_e=np.array([[0.0, 0.25], [third, -third]]),
        coord_iters=np.array([7, 0]),
        gen_iters=np.array([0, 12]),
        flow_iters=np.array([0, 345]),
        audits=(),
    )
    path = tmp_path / "timeseries.csv"
    write_timeseries_csv(record, path)
    assert path.read_bytes().decode("utf-8") == (
        "k,node,p_D,p_d,delta_pG,p_G,p_F_net,p_net,p_e,coord_iters,gen_iters,flow_iters\n"
        "1,1,0.10000000000000001,-0,0.33333333333333331,9007199254740992,0.5,1.5,0,7,0,0\n"
        "1,2,0.10000000000000001,0.10000000000000001,1e-300,1,-0.5,-0,0.25,7,0,0\n"
        "1,total,0.10000000000000001,0.10000000000000001,0.33333333333333331,"
        "9007199254740992,0,1.5,0.25,7,0,0\n"
        "2,1,2,1e-300,-0,3,0.10000000000000001,0.10000000000000001,"
        "0.33333333333333331,0,12,345\n"
        "2,2,2,1e-300,-0,-1,0.20000000000000001,0.20000000000000001,"
        "-0.33333333333333331,0,12,345\n"
        "2,total,2,2.0000000000000001e-300,0,2,0.30000000000000004,0.30000000000000004,"
        "0,0,12,345\n"
    )


def _scenario(name: str):
    """A shipped config, or a benchmark workload at seed 1 and the horizon
    the benchmark runs it at, built from ``perfbench/scenarios.py``."""
    if name in ("with", "without"):
        return load_config(default_config_path(name))
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", SCENARIOS)
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    horizon = 2 if name == "feeder-without" else 4
    return parse_config(json.loads(scenarios.workload_text(name, 1, horizon)))


@pytest.mark.parametrize(
    ("name", "digest"),
    [
        ("with", "6ffebcaec0e8f5fc"),
        ("without", "f59db8b6e6ee64bb"),
        ("feeder-without", "bc87ab17290dc8c9"),
        ("mesh-without", "2cd26650b1dbeb5d"),
        ("mesh-with", "f495f032145d6854"),
    ],
    ids=["with", "without", "feeder-without", "mesh-without", "mesh-with"],
)
def test_shipped_export_is_pinned(tmp_path, name, digest):
    # On the measured spectral interval plain rounds fall behind the
    # Chebyshev bound within a few rounds on every topology here: the
    # shipped 6-node ring, the 120-node feeder and the 2000-node mesh. So
    # the bytes pin the Lanczos interval, the switch rule and the Chebyshev
    # rounds of every ratio and flow call; the mesh also pins the sparse
    # rounds and the export at benchmark scale, and with coordination the
    # seeded demand draw there too. A change here means the intervals, the
    # rounds, the seeded draws or the export format changed.
    csv_path, _ = export_record(run(_scenario(name)), tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16] == digest


def test_repeated_runs_export_identical_bytes(tmp_path):
    # The first run measures the feeder's spectral intervals and keeps them
    # on the topology's shared weights; a second run reuses them, and a
    # freshly parsed config measures them again. All three export the same
    # bytes.
    config = _scenario("feeder-without")
    exports = []
    for k, cfg in enumerate((config, config, _scenario("feeder-without"))):
        csv_path, _ = export_record(run(cfg), tmp_path / str(k))
        exports.append(csv_path.read_bytes())
    assert exports[0] == exports[1] == exports[2]
